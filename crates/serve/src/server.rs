//! The planning server: admission → elastic budgets → pooled execution.
//!
//! Serving splits into two phases so that *what* is planned is fully
//! deterministic and only *how fast* depends on the machine:
//!
//! 1. **Admission (serial, virtual clock).** Requests are walked in
//!    arrival order through the [`AdmissionController`] and the
//!    [`ElasticPools`]. Tenants arrive on their first in-flight request
//!    and depart when their last one finishes (finish times come from the
//!    controller's deterministic cost model), and every arrival/departure
//!    rebalances the fleet's budget slices. Each admitted request snapshots
//!    its quantized host planning budget *at admission* — later rebalances
//!    never change what an in-flight request plans against.
//! 2. **Execution (pooled, wall clock).** Admitted requests fan out over
//!    the work-stealing [`Pool`]. Each one is a single lookup in the
//!    process-global pick table ([`ProfileCache::pick`]), keyed by tenant
//!    kind and workload (frozen host budget included): a repeat costs one
//!    hash probe, and a miss computes [`memo_core::serving::pick`] over
//!    the shared profile and segment caches. Per-request cache traffic,
//!    pick-table traffic and pool activity are scoped with the RAII stats
//!    scopes, so concurrent requests report disjoint, exact counts.
//!
//! Because phase 1 never reads a wall clock and phase 2's results are a
//! pure function of each request, a pooled serve and a serial serve of
//! the same stream produce [`replies_match`](crate::request::replies_match)-identical records — the
//! parity contract the server tests enforce. The serial leg bypasses the
//! pick table and recomputes every pick, so the check verifies each
//! memoized reply against a fresh one.

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::elastic::ElasticPools;
use crate::request::{PlanReply, PlanRequest, RequestOutcome, RequestRecord, TenantKind};
use memo_core::cache::{CacheStats, CacheStatsScope, ProfileCache};
use memo_core::session::Workload;
use memo_obs::json::Json;
use memo_obs::latency::LatencySummary;
use memo_parallel::pool::{Pool, PoolStats, PoolStatsScope};
use memo_swap::{SegmentCacheStats, SegmentStatsScope};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Planning workers of the execution pool (0 = machine width).
    pub workers: usize,
    pub admission: AdmissionPolicy,
    /// Fleet-wide host-staging budget split across active tenants.
    pub host_total_bytes: u64,
    /// Fleet-wide arena budget gating in-flight concurrency.
    pub arena_total_bytes: u64,
    /// Run the execution phase serially, recomputing every pick without
    /// the pick table (the parity reference leg).
    pub serial: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            admission: AdmissionPolicy::default(),
            host_total_bytes: 1024 << 30,
            arena_total_bytes: 64 << 30,
            serial: false,
        }
    }
}

/// Staging bytes one in-flight request holds against its tenant's slice:
/// a host-tier quantum (pinned transfer buffers) and an arena-tier
/// quantum (profiling scratch), both proportional to sequence length.
/// Serving tenants are host-heavy (token-wise KV swap stages cold rows
/// through pinned buffers) but barely touch the planning arena.
pub fn staging_quanta(req: &PlanRequest) -> (u64, u64) {
    match req.kind {
        TenantKind::Training => (req.seq_len * 1024, req.seq_len * 4096),
        TenantKind::Serving => (req.seq_len * 2048, req.seq_len * 512),
    }
}

/// An admitted request with its frozen planning budget.
#[derive(Debug, Clone)]
struct Admitted {
    idx: usize,
    req: PlanRequest,
    host_budget_bytes: u64,
}

/// Fleet-level counters phase 1 leaves behind.
#[derive(Debug, Clone, Copy, Default)]
struct FleetStats {
    rebalances: u64,
    peak_active_tenants: usize,
    /// Worst budget-accounting drift observed at any admission step.
    budget_drift_bytes: u64,
}

/// Aggregate result of serving one stream.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    pub requests: usize,
    pub planned: usize,
    pub shed_queue: usize,
    pub shed_deadline: usize,
    pub shed_budget: usize,
    /// Planned requests whose picked cell is feasible (not an `X_*`).
    pub feasible: usize,
    pub rebalances: u64,
    pub peak_active_tenants: usize,
    /// Worst gap between the pools' reservation ledger and the slices'
    /// actual staged bytes, sampled at every admission step. Must be 0:
    /// the mixed-tenant server tests assert it.
    pub budget_drift_bytes: u64,
    /// Profile-cache traffic summed over the per-request scopes.
    pub profile_cache: CacheStats,
    /// Pick-table traffic summed over the per-request scopes.
    pub picks: CacheStats,
    /// Segment-cache traffic summed over the per-request scopes.
    pub segment_cache: SegmentCacheStats,
    /// Execution-pool activity of phase 2 (this serve only).
    pub pool: PoolStats,
    pub latency: Option<LatencySummary>,
    pub wall_secs: f64,
    /// Planned requests per wall-clock second.
    pub qps: f64,
}

impl ServeSummary {
    pub fn profile_hit_rate(&self) -> f64 {
        self.profile_cache.hit_rate()
    }

    pub fn segment_hit_rate(&self) -> f64 {
        let total = self.segment_cache.hits + self.segment_cache.misses;
        if total == 0 {
            0.0
        } else {
            self.segment_cache.hits as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("requests".into(), Json::int(self.requests as u64)),
            ("planned".into(), Json::int(self.planned as u64)),
            ("shed_queue".into(), Json::int(self.shed_queue as u64)),
            ("shed_deadline".into(), Json::int(self.shed_deadline as u64)),
            ("shed_budget".into(), Json::int(self.shed_budget as u64)),
            ("feasible".into(), Json::int(self.feasible as u64)),
            ("rebalances".into(), Json::int(self.rebalances)),
            (
                "peak_active_tenants".into(),
                Json::int(self.peak_active_tenants as u64),
            ),
            (
                "budget_drift_bytes".into(),
                Json::int(self.budget_drift_bytes),
            ),
            ("profile_hits".into(), Json::int(self.profile_cache.hits)),
            (
                "profile_misses".into(),
                Json::int(self.profile_cache.misses),
            ),
            (
                "profile_hit_rate".into(),
                Json::num(self.profile_hit_rate()),
            ),
            ("pick_hits".into(), Json::int(self.picks.hits)),
            ("pick_misses".into(), Json::int(self.picks.misses)),
            ("pick_hit_rate".into(), Json::num(self.picks.hit_rate())),
            ("segment_hits".into(), Json::int(self.segment_cache.hits)),
            (
                "segment_misses".into(),
                Json::int(self.segment_cache.misses),
            ),
            (
                "segment_hit_rate".into(),
                Json::num(self.segment_hit_rate()),
            ),
            ("pool_batches".into(), Json::int(self.pool.batches)),
            ("pool_jobs".into(), Json::int(self.pool.jobs)),
            ("pool_steals".into(), Json::int(self.pool.steals)),
            (
                "latency".into(),
                self.latency.map_or(Json::Null, |l| l.to_json()),
            ),
            ("wall_secs".into(), Json::num(self.wall_secs)),
            ("qps".into(), Json::num(self.qps)),
        ])
    }
}

/// Everything a serve produced: one record per stream entry (arrival
/// order) plus the aggregate summary.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub records: Vec<RequestRecord>,
    pub summary: ServeSummary,
}

/// The planning service.
#[derive(Debug, Clone, Default)]
pub struct PlanServer {
    pub cfg: ServeConfig,
}

impl PlanServer {
    pub fn new(cfg: ServeConfig) -> Self {
        PlanServer { cfg }
    }

    /// Serve a request stream (must be sorted by arrival, as the
    /// generators produce it).
    pub fn serve(&self, requests: &[PlanRequest]) -> ServeReport {
        let (admitted, mut outcomes, fleet) = self.admit_stream(requests);

        let pool_scope = PoolStatsScope::enter();
        let t0 = Instant::now();
        let replies: Vec<(usize, PlanReply)> = if self.cfg.serial {
            admitted
                .iter()
                .map(|a| (a.idx, plan_one(a, false)))
                .collect()
        } else {
            let pool = if self.cfg.workers == 0 {
                Pool::machine()
            } else {
                Pool::new(self.cfg.workers)
            };
            pool.map(admitted, |a| (a.idx, plan_one(&a, true)))
        };
        let wall_secs = t0.elapsed().as_secs_f64();
        let pool_stats = pool_scope.finish();

        let mut summary = ServeSummary {
            requests: requests.len(),
            planned: replies.len(),
            shed_queue: 0,
            shed_deadline: 0,
            shed_budget: 0,
            feasible: 0,
            rebalances: fleet.rebalances,
            peak_active_tenants: fleet.peak_active_tenants,
            budget_drift_bytes: fleet.budget_drift_bytes,
            profile_cache: CacheStats::default(),
            picks: CacheStats::default(),
            segment_cache: SegmentCacheStats::default(),
            pool: pool_stats,
            latency: None,
            wall_secs,
            qps: if wall_secs > 0.0 {
                replies.len() as f64 / wall_secs
            } else {
                0.0
            },
        };
        let mut latencies = Vec::with_capacity(replies.len());
        for (idx, reply) in replies {
            summary.feasible += usize::from(reply.pick.outcome.is_ok());
            summary.profile_cache.hits += reply.cache.hits;
            summary.profile_cache.misses += reply.cache.misses;
            summary.picks.hits += reply.picks.hits;
            summary.picks.misses += reply.picks.misses;
            summary.segment_cache.hits += reply.segments.hits;
            summary.segment_cache.misses += reply.segments.misses;
            summary.segment_cache.fallbacks += reply.segments.fallbacks;
            latencies.push(reply.latency_secs);
            outcomes[idx] = Some(RequestOutcome::Planned(Box::new(reply)));
        }
        summary.latency = LatencySummary::from_secs(&latencies);

        let records: Vec<RequestRecord> = requests
            .iter()
            .zip(outcomes)
            .map(|(req, outcome)| {
                let outcome = outcome.expect("every stream entry resolved");
                if let RequestOutcome::Rejected(reason) = &outcome {
                    match reason.cell() {
                        "X_queue" => summary.shed_queue += 1,
                        "X_deadline" => summary.shed_deadline += 1,
                        _ => summary.shed_budget += 1,
                    }
                }
                RequestRecord {
                    request: req.clone(),
                    outcome,
                }
            })
            .collect();
        ServeReport { records, summary }
    }

    /// Phase 1: the deterministic admission walk (see module docs).
    #[allow(clippy::type_complexity)]
    fn admit_stream(
        &self,
        requests: &[PlanRequest],
    ) -> (Vec<Admitted>, Vec<Option<RequestOutcome>>, FleetStats) {
        let mut ctrl = AdmissionController::new(self.cfg.admission);
        let mut pools = ElasticPools::new(self.cfg.host_total_bytes, self.cfg.arena_total_bytes);
        let mut remaining: HashMap<usize, usize> = HashMap::new();
        for r in requests {
            *remaining.entry(r.tenant).or_insert(0) += 1;
        }
        let mut outstanding: HashMap<usize, usize> = HashMap::new();
        // In-flight virtual completions: (finish-time bits, id, tenant,
        // host quantum, arena quantum). f64 bits order like the floats
        // for the non-negative finish times used here.
        let mut inflight: BinaryHeap<Reverse<(u64, usize, usize, u64, u64)>> = BinaryHeap::new();
        let mut admitted = Vec::new();
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; requests.len()];
        let mut drift = 0u64;

        let drain =
            |now: f64,
             pools: &mut ElasticPools,
             outstanding: &mut HashMap<usize, usize>,
             remaining: &HashMap<usize, usize>,
             inflight: &mut BinaryHeap<Reverse<(u64, usize, usize, u64, u64)>>| {
                while let Some(Reverse((finish_bits, _, tenant, hq, aq))) = inflight.peek().copied()
                {
                    if f64::from_bits(finish_bits) > now {
                        break;
                    }
                    inflight.pop();
                    pools.release(tenant, hq, aq);
                    let left = outstanding.get_mut(&tenant).expect("in-flight tenant");
                    *left -= 1;
                    if *left == 0 && remaining.get(&tenant).copied().unwrap_or(0) == 0 {
                        pools.tenant_departed(tenant);
                    }
                }
            };

        for (idx, req) in requests.iter().enumerate() {
            drain(
                req.arrival_secs,
                &mut pools,
                &mut outstanding,
                &remaining,
                &mut inflight,
            );
            *remaining.get_mut(&req.tenant).expect("counted tenant") -= 1;
            if !pools.is_active(req.tenant) {
                pools.tenant_arrived(req.tenant);
            }

            let (hq, aq) = staging_quanta(req);
            let decision = ctrl
                .admit(req)
                .and_then(|est_wait| pools.reserve(req.tenant, hq, aq).map(|()| est_wait));
            match decision {
                Ok(est_wait) => {
                    let est_service = ctrl.commit(req);
                    let finish = req.arrival_secs + est_wait + est_service;
                    inflight.push(Reverse((finish.to_bits(), req.id, req.tenant, hq, aq)));
                    *outstanding.entry(req.tenant).or_insert(0) += 1;
                    // Planning budget: the tenant's quantized share right
                    // now, floored at 1 GiB so a crowded fleet still plans
                    // against *something*.
                    let host_budget_bytes = pools.quantized_host_share(req.tenant).max(1 << 30);
                    admitted.push(Admitted {
                        idx,
                        req: req.clone(),
                        host_budget_bytes,
                    });
                }
                Err(reason) => {
                    outcomes[idx] = Some(RequestOutcome::Rejected(reason));
                    if outstanding.get(&req.tenant).copied().unwrap_or(0) == 0
                        && remaining[&req.tenant] == 0
                    {
                        pools.tenant_departed(req.tenant);
                    }
                }
            }
            drift = drift.max(pools.drift_bytes());
        }
        // Drain every still-in-flight request so the fleet ends empty.
        drain(
            f64::INFINITY,
            &mut pools,
            &mut outstanding,
            &remaining,
            &mut inflight,
        );
        debug_assert_eq!(pools.active_tenants(), 0, "fleet must end idle");
        drift = drift.max(pools.drift_bytes());
        let fleet = FleetStats {
            rebalances: pools.rebalances(),
            peak_active_tenants: pools.peak_active_tenants(),
            budget_drift_bytes: drift,
        };
        (admitted, outcomes, fleet)
    }
}

/// Execute one admitted request: one [`ProfileCache::pick`] for its
/// tenant kind under its frozen host budget — a training tenant's
/// strategy grid × α lattice picked by TGS, or a serving tenant's
/// KV-cache policy picked by tokens/sec — with cache traffic scoped to
/// exactly this request. A miss is computed on the calling worker thread
/// (no nested fan-out), which is what makes the thread-local stats scopes
/// exact. The pooled leg looks picks up; the serial leg passes
/// `use_cache = false` and recomputes them. Both are pure functions of
/// (request, frozen host budget), which keeps the legs record-identical.
fn plan_one(adm: &Admitted, use_cache: bool) -> PlanReply {
    let t0 = Instant::now();
    let cache_scope = CacheStatsScope::enter();
    let pick_scope = CacheStatsScope::enter_picks();
    let seg_scope = SegmentStatsScope::enter();
    let mut w = Workload::new(adm.req.model.config(), adm.req.n_gpus, adm.req.seq_len);
    w.calib.set_host_memory_bytes(adm.host_budget_bytes);
    PlanReply {
        pick: ProfileCache::global().pick(&w, adm.req.kind, use_cache),
        host_budget_bytes: adm.host_budget_bytes,
        cache: cache_scope.finish(),
        picks: pick_scope.finish(),
        segments: seg_scope.finish(),
        latency_secs: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{replies_match, RejectReason};
    use crate::zipf::{generate, StreamSpec};
    use std::sync::Arc;

    fn small_stream() -> Vec<PlanRequest> {
        let mut spec = StreamSpec::new(6, 36, 11);
        spec.mean_gap_secs = 1e-3;
        // Generous SLOs: this stream exercises planning, not shedding.
        spec.deadline_range_secs = (0.5, 1.0);
        generate(&spec)
    }

    /// Serve `stream` pooled and serial, and assert the legs agree record
    /// by record: same admitted set, same shed reasons, same picked cell
    /// with a bit-identical winning report.
    fn serve_both_legs(stream: &[PlanRequest]) -> (ServeReport, ServeReport) {
        let pooled = PlanServer::new(ServeConfig::default()).serve(stream);
        let serial = PlanServer::new(ServeConfig {
            serial: true,
            ..ServeConfig::default()
        })
        .serve(stream);
        assert_eq!(pooled.records.len(), stream.len());
        assert_eq!(pooled.summary.planned, serial.summary.planned);
        for (p, s) in pooled.records.iter().zip(&serial.records) {
            match (&p.outcome, &s.outcome) {
                (RequestOutcome::Planned(a), RequestOutcome::Planned(b)) => {
                    assert!(
                        replies_match(a, b),
                        "request {} diverged between legs",
                        p.request.id
                    );
                }
                (RequestOutcome::Rejected(a), RequestOutcome::Rejected(b)) => {
                    assert_eq!(a, b, "request {} shed differently", p.request.id);
                }
                _ => panic!("request {} admitted on one leg only", p.request.id),
            }
        }
        (pooled, serial)
    }

    #[test]
    fn pooled_and_serial_legs_agree_record_by_record() {
        let (pooled, _) = serve_both_legs(&small_stream());
        assert!(pooled.summary.planned > 0);
        assert!(pooled.summary.latency.is_some());
    }

    #[test]
    fn zipfian_fleet_sheds_rebalances_and_keeps_picks_hot() {
        // 48 Zipf-popular tenants, 1,500 requests with SLOs tight enough
        // to shed some.
        let mut spec = StreamSpec::new(48, 1500, 42);
        spec.mean_gap_secs = 0.5e-3;
        spec.deadline_range_secs = (2e-3, 60e-3);
        let (pooled, _) = serve_both_legs(&generate(&spec));
        let s = &pooled.summary;
        assert!(s.planned > 0, "the fleet must plan something");
        assert!(
            s.shed_queue + s.shed_deadline + s.shed_budget > 0,
            "the mix is tuned to shed at least one request"
        );
        assert!(
            s.picks.hit_rate() >= 0.5,
            "pick-table hit rate {:.2} below 0.5",
            s.picks.hit_rate()
        );
        assert!(
            s.rebalances >= spec.tenants as u64,
            "every tenant arrival must rebalance the fleet"
        );
        let lat = s.latency.expect("planned requests have latencies");
        assert!(lat.p50_secs <= lat.p99_secs && lat.p99_secs <= lat.max_secs);
        assert!(s.qps > 0.0);
    }

    #[test]
    fn scoped_stats_sum_to_sane_totals_and_caches_get_hot() {
        let stream = small_stream();
        let report = PlanServer::new(ServeConfig::default()).serve(&stream);
        let s = &report.summary;
        // Every planned request made one pick lookup; with 6 tenants
        // repeating their workloads, picks must mostly hit after the first
        // pass.
        assert_eq!(s.picks.hits + s.picks.misses, s.planned as u64);
        assert!(
            s.picks.hit_rate() >= 0.5,
            "zipfian re-planning must keep the pick table hot: {:.2}",
            s.picks.hit_rate()
        );
        assert_eq!(
            s.planned + s.shed_queue + s.shed_deadline + s.shed_budget,
            s.requests
        );
        assert!(s.rebalances >= 2, "arrivals/departures must rebalance");
        assert!(s.peak_active_tenants >= 1);
        let json = s.to_json();
        assert_eq!(
            json.get("planned").and_then(Json::as_u64),
            Some(s.planned as u64)
        );
        assert_eq!(
            json.get("pick_hits").and_then(Json::as_u64),
            Some(s.picks.hits)
        );
    }

    #[test]
    fn a_repeated_training_request_is_one_pick_hit_matching_a_fresh_pick() {
        let req = |id: usize| PlanRequest {
            id,
            tenant: 0,
            kind: TenantKind::Training,
            model: crate::request::ModelSize::Gpt7b,
            n_gpus: 4,
            seq_len: 64 << 10,
            arrival_secs: id as f64,
            deadline_secs: 1.0,
        };
        let stream = [req(0), req(1)];
        // One worker: the repeat runs after the first request filled the
        // table.
        let pooled = PlanServer::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .serve(&stream);
        let serial = PlanServer::new(ServeConfig {
            serial: true,
            ..ServeConfig::default()
        })
        .serve(&stream);
        let reply = |rep: &ServeReport, i: usize| match &rep.records[i].outcome {
            RequestOutcome::Planned(r) => r.clone(),
            RequestOutcome::Rejected(why) => panic!("request {i} shed: {why}"),
        };
        let (first, repeat) = (reply(&pooled, 0), reply(&pooled, 1));
        assert_eq!(repeat.picks, CacheStats { hits: 1, misses: 0 });
        assert_eq!(
            repeat.cache,
            CacheStats::default(),
            "a hit profiles nothing"
        );
        assert!(Arc::ptr_eq(&first.pick, &repeat.pick));
        assert!(repeat.pick.picked.is_some());
        assert_eq!(repeat.pick.grid_cells % memo_core::serving::ALPHA_POINTS, 0);
        for i in 0..2 {
            let fresh = reply(&serial, i);
            assert_eq!(fresh.picks, CacheStats::default(), "serial leg bypasses");
            assert!(replies_match(&reply(&pooled, i), &fresh));
        }
    }

    #[test]
    fn mixed_tenants_share_the_fleet_without_drift() {
        // Odd tenants serve, even tenants train, against the same elastic
        // budgets: a small stream with generous SLOs and a 24-tenant,
        // 300-request one with tight SLOs.
        for (tenants, requests, seed, gap, deadlines) in [
            (6, 24, 13, 1e-3, (0.5, 1.0)),
            (24, 300, 77, 0.5e-3, (5e-3, 80e-3)),
        ] {
            let mut spec = StreamSpec::new(tenants, requests, seed);
            spec.serving_stride = 2;
            spec.mean_gap_secs = gap;
            spec.deadline_range_secs = deadlines;
            let stream = generate(&spec);
            assert!(stream.iter().any(|r| r.kind == TenantKind::Serving));
            assert!(stream.iter().any(|r| r.kind == TenantKind::Training));

            let (pooled, serial) = serve_both_legs(&stream);
            assert_eq!(pooled.summary.budget_drift_bytes, 0);
            assert_eq!(serial.summary.budget_drift_bytes, 0);
            let (mut served, mut trained) = (0, 0);
            for r in &pooled.records {
                let RequestOutcome::Planned(reply) = &r.outcome else {
                    continue;
                };
                if r.request.kind == TenantKind::Serving {
                    served += 1;
                    // A serving plan carries a policy cell, not a parallel
                    // strategy.
                    assert!(reply.pick.picked.is_none());
                    assert_eq!(reply.pick.grid_cells, 4);
                } else {
                    trained += 1;
                }
            }
            assert!(
                served > 0,
                "{tenants} tenants: some serving requests planned"
            );
            assert!(
                trained > 0,
                "{tenants} tenants: some training requests planned"
            );
        }
    }

    #[test]
    fn starved_fleet_sheds_with_typed_reasons() {
        let mut spec = StreamSpec::new(4, 60, 3);
        // A dense burst against one worker and a tiny queue: queue and
        // deadline sheds. Arena of 1 GiB: budget sheds.
        spec.mean_gap_secs = 1e-5;
        spec.deadline_range_secs = (1e-4, 2e-3);
        let stream = generate(&spec);
        let report = PlanServer::new(ServeConfig {
            admission: AdmissionPolicy {
                max_queue_depth: 2,
                deadline_shedding: true,
                workers: 1,
                ewma_alpha: 0.2,
            },
            arena_total_bytes: 1 << 30,
            ..ServeConfig::default()
        })
        .serve(&stream);
        let s = &report.summary;
        assert!(
            s.shed_queue + s.shed_deadline + s.shed_budget > 0,
            "a starved fleet must shed"
        );
        // Shed records carry their typed reason through to the table cell.
        for r in &report.records {
            if let RequestOutcome::Rejected(reason) = &r.outcome {
                assert!(r.cell().starts_with("X_"));
                match reason {
                    RejectReason::QueueFull { depth, limit } => assert!(depth >= limit),
                    RejectReason::DeadlineUnmeetable {
                        est_wait_secs,
                        deadline_secs,
                    } => assert!(est_wait_secs >= &0.0 && deadline_secs > &0.0),
                    RejectReason::BudgetUnavailable { requested, .. } => assert!(*requested > 0),
                }
            }
        }
    }
}
