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
//!    the chunked [`Pool`]. Each worker keeps its own pick memo for the
//!    batch, keyed by the request fields the pick depends on (frozen host
//!    budget included): a repeat on that worker costs one local hash
//!    probe. A memo miss is a single lookup in the process-global pick
//!    table ([`ProfileCache::pick`]), and a table miss computes
//!    [`memo_core::serving::pick`] over the shared profile and segment
//!    caches. Per-request cache traffic, pick-table traffic and pool
//!    activity are scoped with the RAII stats scopes, so concurrent
//!    requests report disjoint, exact counts.
//!
//! Because phase 1 never reads a wall clock and phase 2's results are a
//! pure function of each request, a pooled serve and a serial serve of
//! the same stream produce [`replies_match`](crate::request::replies_match)-identical records — the
//! parity contract the server tests enforce. The serial leg bypasses the
//! pick table and recomputes every pick, so the check verifies each
//! memoized reply against a fresh one.

use crate::admission::AdmissionController;
use crate::elastic::ElasticPools;
use crate::request::{
    ModelSize, PlanReply, PlanRequest, RequestOutcome, RequestRecord, TenantKind,
};
use memo_core::cache::{CacheStats, CacheStatsScope, ProfileCache, PICK_SCOPE};
use memo_core::outcome::CellOutcome;
use memo_core::serving::Pick;
use memo_core::session::Workload;
use memo_model::hash::FxHashMap;
use memo_obs::json::Json;
use memo_obs::latency::LatencySummary;
use memo_parallel::pool::{Pool, PoolStats, PoolStatsScope};
use memo_swap::{SegmentCacheStats, SegmentStatsScope};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Planning workers of the execution pool (0 = machine width).
    pub workers: usize,
    /// Admission sheds when the virtual queue reaches this many requests.
    pub max_queue_depth: usize,
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
            max_queue_depth: 64,
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
fn staging_quanta(req: &PlanRequest) -> (u64, u64) {
    match req.kind {
        TenantKind::Training => (req.seq_len * 1024, req.seq_len * 4096),
        TenantKind::Serving => (req.seq_len * 2048, req.seq_len * 512),
    }
}

/// Everything an admitted request's pick depends on: the request fields
/// [`plan_one`] turns into a [`Workload`], and the host budget frozen at
/// admission. It keys the per-worker pick memo of a pooled serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RequestKey {
    kind: TenantKind,
    model: ModelSize,
    n_gpus: usize,
    seq_len: u64,
    host_budget_bytes: u64,
}

impl RequestKey {
    fn new(req: &PlanRequest, host_budget_bytes: u64) -> Self {
        RequestKey {
            kind: req.kind,
            model: req.model,
            n_gpus: req.n_gpus,
            seq_len: req.seq_len,
            host_budget_bytes,
        }
    }

    /// The workload the request plans for: a pure function of the key.
    fn workload(&self) -> Workload {
        let mut w = Workload::new(self.model.config(), self.n_gpus, self.seq_len);
        w.calib.set_host_memory_bytes(self.host_budget_bytes);
        w
    }
}

/// An admitted request: its stream position and what it plans.
#[derive(Debug, Clone)]
struct Admitted {
    idx: usize,
    key: RequestKey,
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
    /// Planned requests by their pick's outcome kind, indexed like
    /// [`CellOutcome::KINDS`]: `ok`, `X_oom`, `X_oohm`, `X_cfg`, `X_time`.
    pub cells: [usize; 5],
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

    /// [`Self::cells`] named by their outcome kinds.
    pub fn cell_counts(&self) -> impl Iterator<Item = (&'static str, usize)> {
        CellOutcome::KINDS.into_iter().zip(self.cells)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("requests".into(), Json::int(self.requests as u64)),
            ("planned".into(), Json::int(self.planned as u64)),
            ("shed_queue".into(), Json::int(self.shed_queue as u64)),
            ("shed_deadline".into(), Json::int(self.shed_deadline as u64)),
            ("shed_budget".into(), Json::int(self.shed_budget as u64)),
            ("feasible".into(), Json::int(self.feasible as u64)),
            (
                "cells".into(),
                Json::Obj(
                    self.cell_counts()
                        .map(|(kind, n)| (kind.into(), Json::int(n as u64)))
                        .collect(),
                ),
            ),
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
    cfg: ServeConfig,
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
                .map(|a| (a.idx, plan_one(&a.key, false)))
                .collect()
        } else {
            let pool = if self.cfg.workers == 0 {
                Pool::machine()
            } else {
                Pool::new(self.cfg.workers)
            };
            pool.map_init(admitted, FxHashMap::default, |memo, a| {
                (a.idx, plan_memoized(memo, a.key))
            })
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
            cells: [0; 5],
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
            summary.cells[reply.pick.outcome.kind()] += 1;
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
        summary.feasible = summary.cells[0];
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
    ///
    /// A counting pass numbers the stream's tenant ids with dense slots in
    /// first-appearance order: the walk's one hash per request. The pools,
    /// the per-tenant counters and the in-flight heap then work on slots,
    /// so sparse or huge tenant ids cost nothing extra.
    #[allow(clippy::type_complexity)]
    fn admit_stream(
        &self,
        requests: &[PlanRequest],
    ) -> (Vec<Admitted>, Vec<Option<RequestOutcome>>, FleetStats) {
        let mut ctrl = AdmissionController::new(self.cfg.max_queue_depth);
        let mut pools = ElasticPools::new(self.cfg.host_total_bytes, self.cfg.arena_total_bytes);
        let mut slot_of: FxHashMap<usize, usize> = FxHashMap::default();
        let slots: Vec<usize> = requests
            .iter()
            .map(|r| {
                let next = slot_of.len();
                *slot_of.entry(r.tenant).or_insert(next)
            })
            .collect();
        // Requests of each slot's tenant still to arrive, and in flight.
        let mut remaining = vec![0usize; slot_of.len()];
        for &slot in &slots {
            remaining[slot] += 1;
        }
        let mut outstanding = vec![0usize; slot_of.len()];
        // In-flight virtual completions: (finish-time bits, id, slot,
        // host quantum, arena quantum). f64 bits order like the floats
        // for the non-negative finish times used here.
        let mut inflight: BinaryHeap<Reverse<(u64, usize, usize, u64, u64)>> = BinaryHeap::new();
        let mut admitted = Vec::new();
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; requests.len()];
        let mut drift = 0u64;

        let drain =
            |now: f64,
             pools: &mut ElasticPools,
             outstanding: &mut [usize],
             remaining: &[usize],
             inflight: &mut BinaryHeap<Reverse<(u64, usize, usize, u64, u64)>>| {
                while let Some(Reverse((finish_bits, _, slot, hq, aq))) = inflight.peek().copied() {
                    if f64::from_bits(finish_bits) > now {
                        break;
                    }
                    inflight.pop();
                    pools.release(slot, hq, aq);
                    outstanding[slot] -= 1;
                    if outstanding[slot] == 0 && remaining[slot] == 0 {
                        pools.tenant_departed(slot);
                    }
                }
            };

        for ((idx, req), &slot) in requests.iter().enumerate().zip(&slots) {
            drain(
                req.arrival_secs,
                &mut pools,
                &mut outstanding,
                &remaining,
                &mut inflight,
            );
            remaining[slot] -= 1;
            if !pools.is_active(slot) {
                pools.tenant_arrived(slot);
            }

            let (hq, aq) = staging_quanta(req);
            let decision = ctrl
                .admit(req)
                .and_then(|est_wait| pools.reserve(slot, hq, aq).map(|()| est_wait));
            match decision {
                Ok(est_wait) => {
                    let est_service = ctrl.commit(req);
                    let finish = req.arrival_secs + est_wait + est_service;
                    inflight.push(Reverse((finish.to_bits(), req.id, slot, hq, aq)));
                    outstanding[slot] += 1;
                    // Planning budget: the tenant's quantized share right
                    // now, floored at 1 GiB so a crowded fleet still plans
                    // against *something*.
                    let host_budget_bytes = pools.quantized_host_share().max(1 << 30);
                    admitted.push(Admitted {
                        idx,
                        key: RequestKey::new(req, host_budget_bytes),
                    });
                }
                Err(reason) => {
                    outcomes[idx] = Some(RequestOutcome::Rejected(reason));
                    if outstanding[slot] == 0 && remaining[slot] == 0 {
                        pools.tenant_departed(slot);
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
/// the [`RequestKey`], which keeps the legs record-identical.
///
/// The pooled leg calls this only on a miss in its worker's memo
/// ([`plan_memoized`]), so a key is looked up in the pick table at most
/// once per worker and serve. That is the one way its behaviour can
/// differ from looking every request up in the table: a shard eviction
/// (`SHARD_CAP`) inside one serve would turn a later lookup of an evicted
/// key into a table miss and a fresh pick, where the memo reports a hit
/// and replies with the pick the table held before the eviction.
fn plan_one(key: &RequestKey, use_cache: bool) -> PlanReply {
    let t0 = Instant::now();
    let cache_scope = CacheStatsScope::enter();
    let pick_scope = CacheStatsScope::enter_on(&PICK_SCOPE);
    let seg_scope = SegmentStatsScope::enter();
    PlanReply {
        pick: ProfileCache::global().pick(&key.workload(), key.kind, use_cache),
        host_budget_bytes: key.host_budget_bytes,
        cache: cache_scope.finish(),
        picks: pick_scope.finish(),
        segments: seg_scope.finish(),
        latency_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Execute one admitted request of a pooled serve through its worker's
/// pick memo. A hit replies with the memo's pick and reports one pick hit
/// and no profile or segment traffic, as a warm pick-table hit does. A
/// miss runs [`plan_one`] and memoizes the worker's own copy of the
/// table's pick. The table keeps the first pick inserted for a key, even
/// when two workers miss on it at once, so every worker copies the same
/// pick. The copy spares the workers one shared reference count bumped
/// per request: on 2 vCPUs it halves fleet-mixed's `op_ms_p90` against
/// replying with the table's `Arc` (DESIGN.md §2h).
fn plan_memoized(memo: &mut FxHashMap<RequestKey, Arc<Pick>>, key: RequestKey) -> PlanReply {
    let t0 = Instant::now();
    if let Some(pick) = memo.get(&key) {
        return PlanReply {
            pick: Arc::clone(pick),
            host_budget_bytes: key.host_budget_bytes,
            cache: CacheStats::default(),
            picks: CacheStats { hits: 1, misses: 0 },
            segments: SegmentCacheStats::default(),
            latency_secs: t0.elapsed().as_secs_f64(),
        };
    }
    let mut reply = plan_one(&key, true);
    reply.pick = Arc::new((*reply.pick).clone());
    memo.insert(key, Arc::clone(&reply.pick));
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{replies_match, RejectReason};
    use crate::zipf::{generate, StreamSpec};

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
        // Planned picks by outcome kind: they sum to `planned`, `ok` is
        // `feasible`, and each count is the records' own.
        assert_eq!(s.cells.iter().sum::<usize>(), s.planned);
        assert_eq!(s.cells[0], s.feasible);
        for (kind, n) in s.cell_counts() {
            let records = report
                .records
                .iter()
                .filter(|r| match &r.outcome {
                    RequestOutcome::Planned(p) => CellOutcome::KINDS[p.pick.outcome.kind()] == kind,
                    RequestOutcome::Rejected(_) => false,
                })
                .count();
            assert_eq!(n, records, "{kind}");
            let cells = json.get("cells").expect("cell counts");
            assert_eq!(cells.get(kind).and_then(Json::as_u64), Some(n as u64));
        }
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
    fn a_warm_reserve_hits_every_pick_and_matches_one_worker() {
        let mut spec = StreamSpec::new(48, 1500, 45);
        spec.serving_stride = 2;
        let stream = generate(&spec);
        let pooled = PlanServer::new(ServeConfig::default());
        pooled.serve(&stream);
        let warm = pooled.serve(&stream);
        let s = &warm.summary;
        assert!(s.planned > 1000, "{} of 1500 planned", s.planned);
        assert_eq!(
            s.picks,
            CacheStats {
                hits: s.planned as u64,
                misses: 0
            }
        );

        let one = PlanServer::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .serve(&stream);
        assert_eq!(one.summary.picks, s.picks);
        for (p, o) in warm.records.iter().zip(&one.records) {
            let (RequestOutcome::Planned(a), RequestOutcome::Planned(b)) = (&p.outcome, &o.outcome)
            else {
                assert_eq!(
                    p.cell(),
                    o.cell(),
                    "request {} shed differently",
                    p.request.id
                );
                continue;
            };
            assert!(replies_match(a, b), "request {} diverged", p.request.id);
            assert_eq!(a.picks, b.picks);
            assert_eq!(a.host_budget_bytes, b.host_budget_bytes);
            let key = RequestKey::new(&p.request, a.host_budget_bytes);
            let direct = ProfileCache::global().pick(&key.workload(), key.kind, true);
            assert_eq!(*a.pick, *direct, "request {}", p.request.id);
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

    /// What the admission walk decided for every request, one record of
    /// four words each: `[0, frozen host budget, 0, 0]` when admitted, the
    /// reject kind (1 queue, 2 deadline, 3 budget) and its numbers
    /// otherwise. Then the summary counters the walk feeds: planned, queue,
    /// deadline and budget sheds, rebalances, peak active tenants, drift.
    fn admission_records(cfg: ServeConfig, stream: &[PlanRequest]) -> (Vec<[u64; 4]>, [u64; 7]) {
        let (admitted, outcomes, fleet) = PlanServer::new(cfg).admit_stream(stream);
        let mut records = vec![[0; 4]; stream.len()];
        for a in &admitted {
            records[a.idx] = [0, a.key.host_budget_bytes, 0, 0];
        }
        let mut shed = [0u64; 3];
        for (record, outcome) in records.iter_mut().zip(outcomes) {
            let Some(RequestOutcome::Rejected(reason)) = outcome else {
                continue;
            };
            *record = match reason {
                RejectReason::QueueFull { depth, limit } => [1, depth as u64, limit as u64, 0],
                RejectReason::DeadlineUnmeetable {
                    est_wait_secs,
                    deadline_secs,
                } => [2, est_wait_secs.to_bits(), deadline_secs.to_bits(), 0],
                RejectReason::BudgetUnavailable {
                    tier,
                    requested,
                    capacity,
                } => [3, tier as u64, requested, capacity],
            };
            shed[record[0] as usize - 1] += 1;
        }
        let summary = [
            admitted.len() as u64,
            shed[0],
            shed[1],
            shed[2],
            fleet.rebalances,
            fleet.peak_active_tenants as u64,
            fleet.budget_drift_bytes,
        ];
        (records, summary)
    }

    /// FNV-1a over the records' little-endian words.
    fn fnv(records: &[[u64; 4]]) -> u64 {
        records
            .iter()
            .flatten()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// The three pinned streams: fleet-mixed's shape (48 tenants, 1,500
    /// requests, every second tenant serving) under the default config,
    /// under fleet budgets tight enough to shed on both tiers, and under a
    /// queue-depth limit of 2.
    fn pinned_streams() -> [(ServeConfig, Vec<PlanRequest>); 3] {
        let stream = |seed| {
            let mut spec = StreamSpec::new(48, 1500, seed);
            spec.serving_stride = 2;
            generate(&spec)
        };
        [
            (ServeConfig::default(), stream(1000)),
            (
                ServeConfig {
                    host_total_bytes: 8 << 30,
                    arena_total_bytes: 8 << 30,
                    ..ServeConfig::default()
                },
                stream(2000),
            ),
            (
                ServeConfig {
                    max_queue_depth: 2,
                    ..ServeConfig::default()
                },
                stream(3000),
            ),
        ]
    }

    /// Every admission decision of the pinned streams, recorded before the
    /// elastic pools became plain counters: each record's digest, then the
    /// summary counters.
    #[test]
    fn admission_decisions_match_the_recorded_digests() {
        const PINNED: [(u64, [u64; 7]); 3] = [
            (0x290d_c601_bb6b_81bd, [1426, 0, 29, 45, 96, 46, 0]),
            (0xc3a1_bdbd_9b0f_120a, [306, 0, 20, 1174, 96, 47, 0]),
            (0xb321_06c9_3a6a_4176, [1357, 102, 11, 30, 96, 47, 0]),
        ];
        let mut budget_tiers = [0usize; 2];
        for ((cfg, stream), (digest, summary)) in pinned_streams().into_iter().zip(PINNED) {
            let (records, counters) = admission_records(cfg, &stream);
            for r in records.iter().filter(|r| r[0] == 3) {
                budget_tiers[r[1] as usize] += 1;
            }
            assert_eq!((fnv(&records), counters), (digest, summary));
        }
        assert!(
            budget_tiers[0] > 0 && budget_tiers[1] > 0,
            "{budget_tiers:?}"
        );
    }

    /// Tenant ids are names, not indices: remapping them to sparse values
    /// near `usize::MAX` changes no decision and no reply.
    #[test]
    fn sparse_tenant_ids_serve_identically() {
        for (cfg, stream) in pinned_streams() {
            let sparse: Vec<PlanRequest> = stream
                .iter()
                .map(|r| PlanRequest {
                    tenant: usize::MAX - r.tenant * 0x9e37_79b9,
                    ..r.clone()
                })
                .collect();
            assert_eq!(
                admission_records(cfg.clone(), &sparse),
                admission_records(cfg.clone(), &stream)
            );
            let server = PlanServer::new(cfg);
            let (a, b) = (server.serve(&sparse), server.serve(&stream));
            for (x, y) in a.records.iter().zip(&b.records) {
                match (&x.outcome, &y.outcome) {
                    (RequestOutcome::Planned(p), RequestOutcome::Planned(q)) => {
                        assert!(replies_match(p, q), "request {}", x.request.id)
                    }
                    (RequestOutcome::Rejected(p), RequestOutcome::Rejected(q)) => assert_eq!(p, q),
                    _ => panic!("request {} admitted once", x.request.id),
                }
            }
            assert_eq!(a.summary.cells, b.summary.cells);
        }
    }

    #[test]
    fn starved_fleet_sheds_with_typed_reasons() {
        let mut spec = StreamSpec::new(4, 60, 3);
        // A dense burst against a tiny queue: queue and
        // deadline sheds. Arena of 1 GiB: budget sheds.
        spec.mean_gap_secs = 1e-5;
        spec.deadline_range_secs = (1e-4, 2e-3);
        let stream = generate(&spec);
        let report = PlanServer::new(ServeConfig {
            max_queue_depth: 2,
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
