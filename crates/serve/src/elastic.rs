//! Elastic repartitioning of the cluster's shared memory budgets.
//!
//! The fleet has one host-staging budget and one arena budget; active
//! tenants split both evenly. Arrival of a new tenant or departure of an
//! idle one triggers a rebalance — every live slice is resized *in place*
//! through [`TierStaging::resize`], so bytes a tenant already staged ride
//! along (a shrink below usage over-commits the slice until it drains,
//! exactly the eLLM-style semantics of `HostStaging::set_capacity`).
//!
//! Two different things are carved out of a tenant's slice:
//!
//! * the **planning budget** — the host-memory capacity the planner is
//!   told to plan against. It is quantized down to a power of two before
//!   it reaches `Calibration::set_host_memory_bytes`, so the pick- and
//!   profile-cache keys only change when a tenant's share moves by 2×,
//!   not on every arrival/departure — this is what keeps the shared
//!   caches hot across rebalances;
//! * the **staging reservation** — per-request bytes reserved from the
//!   slice while a request is in flight, gating admission concurrency.
//!   Overflow maps to [`RejectReason::BudgetUnavailable`].

use crate::request::RejectReason;
use memo_model::hash::FxHashMap;
use memo_swap::schedule::{TierTraffic, TierTrafficList};
use memo_swap::{HostStaging, TierStaging};

/// Tier indices of a tenant slice's two pools.
const HOST_TIER: usize = 0;
const ARENA_TIER: usize = 1;

/// Largest power of two ≤ `bytes` (0 stays 0).
fn quantize_pow2(bytes: u64) -> u64 {
    if bytes == 0 {
        0
    } else {
        1u64 << (63 - bytes.leading_zeros())
    }
}

fn traffic(host_bytes: u64, arena_bytes: u64) -> TierTrafficList {
    let mut t = TierTrafficList::new();
    for bytes in [host_bytes, arena_bytes] {
        t.push(TierTraffic {
            bytes,
            bandwidth: 1e9,
            latency_secs: 0.0,
        });
    }
    t
}

/// A slice's own usage counters, per tier.
fn usage(slice: &TierStaging) -> [u64; 2] {
    [
        slice.host_used(),
        slice.pool(ARENA_TIER).map_or(0, HostStaging::used),
    ]
}

/// The fleet's elastic budget pools: one [`TierStaging`] slice per active
/// tenant, rebalanced to an even split on every arrival and departure.
#[derive(Debug, Clone)]
pub struct ElasticPools {
    host_total: u64,
    arena_total: u64,
    /// Active tenants in arrival order (the rebalance order is
    /// deterministic so the two server legs agree byte for byte).
    active: Vec<usize>,
    slices: FxHashMap<usize, TierStaging>,
    rebalances: u64,
    peak_active: usize,
    /// Independent reservation ledger, per tier: what the pools *should*
    /// hold given every successful reserve minus every release. Compared
    /// against the slices' own usage counters by [`drift_bytes`] — any
    /// gap means elastic resizes or rollbacks lost staged bytes.
    ///
    /// [`drift_bytes`]: ElasticPools::drift_bytes
    ledger: [u64; 2],
    /// Running per-tier totals of the slices' own usage counters, moved by
    /// [`Self::retally`] from before/after reads of every slice change.
    /// `None` once a total would leave `u64`: an inconsistent tally,
    /// which reads as drift instead of wrapping.
    staged: Option<[u64; 2]>,
}

impl ElasticPools {
    pub fn new(host_total: u64, arena_total: u64) -> Self {
        ElasticPools {
            host_total,
            arena_total,
            active: Vec::new(),
            slices: FxHashMap::default(),
            rebalances: 0,
            peak_active: 0,
            ledger: [0, 0],
            staged: Some([0, 0]),
        }
    }

    pub(crate) fn active_tenants(&self) -> usize {
        self.active.len()
    }

    pub(crate) fn peak_active_tenants(&self) -> usize {
        self.peak_active
    }

    pub(crate) fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Budget-accounting drift: absolute gap, summed over both tiers,
    /// between the reservation ledger and what the slices actually hold.
    /// Zero at all times is the mixed-tenant contract (asserted by the
    /// server's `mixed_tenants_share_the_fleet_without_drift` test) —
    /// rebalances, failed-reserve rollbacks, and tenant churn must never
    /// leak or double-count staged bytes.
    ///
    /// O(1) in the tenant count: it compares the running totals of the
    /// slices' usage counters with the ledger, two tallies kept apart
    /// (the ledger counts requested bytes, the totals read the slices).
    /// An inconsistent total reads as `u64::MAX`. Debug builds also
    /// assert, on every call, that the totals equal a full scan of the
    /// slices.
    pub fn drift_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.staged,
            self.scan(),
            "running totals diverged from the slices"
        );
        let Some(staged) = self.staged else {
            return u64::MAX;
        };
        staged[HOST_TIER]
            .abs_diff(self.ledger[HOST_TIER])
            .saturating_add(staged[ARENA_TIER].abs_diff(self.ledger[ARENA_TIER]))
    }

    /// Per-tier sums of every slice's usage counters, `None` if a sum
    /// leaves `u64`: the full scan the running totals replace.
    fn scan(&self) -> Option<[u64; 2]> {
        self.slices.values().try_fold([0u64; 2], |mut sum, slice| {
            for (total, used) in sum.iter_mut().zip(usage(slice)) {
                *total = total.checked_add(used)?;
            }
            Some(sum)
        })
    }

    /// Apply `f` to `tenant`'s slice and carry the change of the slice's
    /// usage counters into the running totals.
    fn track<R>(&mut self, tenant: usize, f: impl FnOnce(&mut TierStaging) -> R) -> R {
        let slice = self.slices.get_mut(&tenant).expect("tenant is active");
        let before = usage(slice);
        let result = f(slice);
        let after = usage(slice);
        self.retally(before, after);
        result
    }

    /// Move the running totals from a slice's `before` usage to its
    /// `after` usage, poisoning them rather than wrapping.
    fn retally(&mut self, before: [u64; 2], after: [u64; 2]) {
        self.staged = self.staged.and_then(|mut staged| {
            for tier in [HOST_TIER, ARENA_TIER] {
                staged[tier] = staged[tier]
                    .checked_sub(before[tier])?
                    .checked_add(after[tier])?;
            }
            Some(staged)
        });
    }

    pub(crate) fn is_active(&self, tenant: usize) -> bool {
        self.slices.contains_key(&tenant)
    }

    /// Even split of both budgets over the active tenants, applied via
    /// elastic resize (usage and peaks survive).
    fn rebalance(&mut self) {
        let n = self.active.len().max(1) as u64;
        let shares = [self.host_total / n, self.arena_total / n];
        for i in 0..self.active.len() {
            self.track(self.active[i], |slice| slice.resize(&shares));
        }
        self.rebalances += 1;
    }

    /// First in-flight presence of `tenant`: carve a slice and shrink
    /// everyone else's. The new slice holds nothing, so the running
    /// totals do not move.
    pub fn tenant_arrived(&mut self, tenant: usize) {
        assert!(!self.is_active(tenant), "tenant {tenant} already active");
        self.active.push(tenant);
        self.peak_active = self.peak_active.max(self.active.len());
        self.slices.insert(tenant, TierStaging::new(&[0, 0]));
        self.rebalance();
    }

    /// Last in-flight request of `tenant` finished and no more are
    /// coming: return its slice to the pool and grow everyone else's.
    pub(crate) fn tenant_departed(&mut self, tenant: usize) {
        let slice = self
            .slices
            .remove(&tenant)
            .expect("departing tenant active");
        let staged = usage(&slice);
        self.retally(staged, [0, 0]);
        assert_eq!(staged, [0, 0], "tenant {tenant} departed with staged bytes");
        self.active.retain(|&t| t != tenant);
        self.rebalance();
    }

    /// The planning budget of `tenant`'s current slice: the host share,
    /// quantized down to a power of two for cache-key stability.
    pub(crate) fn quantized_host_share(&self, tenant: usize) -> u64 {
        let share = self
            .slices
            .get(&tenant)
            .and_then(|s| s.pool(HOST_TIER))
            .map_or(0, HostStaging::capacity);
        quantize_pow2(share)
    }

    /// Stage one in-flight request's bytes against the tenant's slice.
    /// Debug builds check the ledger against the slices afterwards.
    pub fn reserve(
        &mut self,
        tenant: usize,
        host_bytes: u64,
        arena_bytes: u64,
    ) -> Result<(), RejectReason> {
        let result = self.track(tenant, |slice| {
            slice
                .reserve_layer(&traffic(host_bytes, arena_bytes))
                .inspect_err(|e| {
                    // reserve_layer commits nearer tiers before failing;
                    // roll the host commit back so a shed request holds
                    // nothing.
                    if e.tier == ARENA_TIER {
                        slice.release_layer(&traffic(host_bytes, 0));
                    }
                })
        });
        let result = match result {
            Ok(()) => {
                self.ledger[HOST_TIER] += host_bytes;
                self.ledger[ARENA_TIER] += arena_bytes;
                Ok(())
            }
            Err(e) => Err(RejectReason::BudgetUnavailable {
                tier: e.tier,
                requested: e.requested,
                capacity: e.capacity,
            }),
        };
        debug_assert_eq!(self.drift_bytes(), 0, "reserve drifted the ledger");
        result
    }

    /// Release one in-flight request's bytes. Releasing more than the
    /// ledger holds — a double release — panics in every build rather
    /// than wrapping the ledger.
    pub fn release(&mut self, tenant: usize, host_bytes: u64, arena_bytes: u64) {
        for (tier, bytes) in [(HOST_TIER, host_bytes), (ARENA_TIER, arena_bytes)] {
            self.ledger[tier] = self.ledger[tier]
                .checked_sub(bytes)
                .expect("released bytes the ledger does not hold (double release)");
        }
        self.track(tenant, |slice| {
            slice.release_layer(&traffic(host_bytes, arena_bytes))
        });
        debug_assert_eq!(self.drift_bytes(), 0, "release drifted the ledger");
    }

    /// Stage bytes on `tenant`'s slice through the tracked path but skip
    /// the ledger: the lost-bytes bug [`Self::drift_bytes`] must catch.
    #[cfg(test)]
    fn stage_unledgered(&mut self, tenant: usize, host_bytes: u64, arena_bytes: u64) {
        self.track(tenant, |slice| {
            slice
                .reserve_layer(&traffic(host_bytes, arena_bytes))
                .expect("unledgered bytes fit the slice")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn shares_split_evenly_and_quantize_to_powers_of_two() {
        let mut pools = ElasticPools::new(96 * GIB, 24 * GIB);
        pools.tenant_arrived(0);
        assert_eq!(pools.quantized_host_share(0), 64 * GIB);
        pools.tenant_arrived(1);
        pools.tenant_arrived(2);
        // 96/3 = 32 GiB exact: already a power of two.
        for t in 0..3 {
            assert_eq!(pools.quantized_host_share(t), 32 * GIB);
        }
        pools.tenant_departed(1);
        // 96/2 = 48 GiB → quantized down to 32 GiB: the cache key did NOT
        // move even though the raw share did.
        assert_eq!(pools.quantized_host_share(0), 32 * GIB);
        assert_eq!(pools.rebalances(), 4);
        assert_eq!(pools.peak_active_tenants(), 3);
    }

    #[test]
    fn reservations_survive_rebalances_and_gate_admission() {
        let mut pools = ElasticPools::new(8 * GIB, 2 * GIB);
        pools.tenant_arrived(7);
        pools.reserve(7, GIB, GIB).unwrap();
        // Arena slice is 2 GiB; a second 1.5 GiB arena ask overflows and
        // names the arena tier.
        let err = pools.reserve(7, 0, 3 * GIB / 2).unwrap_err();
        match err {
            RejectReason::BudgetUnavailable {
                tier,
                requested,
                capacity,
            } => {
                assert_eq!(tier, ARENA_TIER);
                assert_eq!(requested, 3 * GIB / 2);
                assert_eq!(capacity, 2 * GIB);
            }
            other => panic!("wrong reject: {other:?}"),
        }
        // A second tenant halves the slice below tenant 7's staged GiB on
        // the arena tier: nothing is revoked, new reserves fail, and after
        // the release + departure the survivor's slice grows back.
        pools.tenant_arrived(8);
        assert!(pools.reserve(7, 0, GIB / 2).is_err());
        pools.release(7, GIB, GIB);
        pools.tenant_departed(8);
        pools.reserve(7, 2 * GIB, GIB).unwrap();
        pools.release(7, 2 * GIB, GIB);
        pools.tenant_departed(7);
        assert_eq!(pools.active_tenants(), 0);
    }

    #[test]
    fn failed_reserve_rolls_back_the_host_commit() {
        let mut pools = ElasticPools::new(8 * GIB, GIB);
        pools.tenant_arrived(0);
        let err = pools.reserve(0, GIB, 2 * GIB).unwrap_err();
        assert!(matches!(
            err,
            RejectReason::BudgetUnavailable {
                tier: ARENA_TIER,
                ..
            }
        ));
        // The host-tier commit of the failed layer reserve was undone: the
        // full host share is still reservable.
        pools.reserve(0, 8 * GIB, 0).unwrap();
        pools.release(0, 8 * GIB, 0);
    }

    #[test]
    fn arena_reserve_failure_rolls_back_to_zero_drift() {
        let mut pools = ElasticPools::new(8 * GIB, GIB);
        pools.tenant_arrived(0);
        pools.tenant_arrived(1);
        pools.reserve(1, GIB, GIB / 4).unwrap();
        // Tenant 0's host tier fits, its arena tier does not: the host
        // commit is rolled back and nothing is left staged or ledgered.
        assert!(matches!(
            pools.reserve(0, GIB, GIB),
            Err(RejectReason::BudgetUnavailable {
                tier: ARENA_TIER,
                ..
            })
        ));
        assert_eq!(pools.drift_bytes(), 0);
        pools.release(1, GIB, GIB / 4);
        assert_eq!(pools.drift_bytes(), 0);
        pools.tenant_departed(0);
        pools.tenant_departed(1);
    }

    /// Drift is zero and the running totals equal a full scan.
    fn assert_consistent(pools: &ElasticPools, step: &str) {
        assert_eq!(pools.drift_bytes(), 0, "{step}: drift");
        assert_eq!(pools.staged, pools.scan(), "{step}: totals vs scan");
        assert_eq!(pools.staged, Some(pools.ledger), "{step}: totals vs ledger");
    }

    #[test]
    fn running_totals_match_a_full_scan_through_churn() {
        const TENANTS: usize = 6;
        // A roomy host budget and a tight arena: arena reserves fail after
        // their host commit, so the rollback runs.
        let mut pools = ElasticPools::new(64 * GIB, 4 * GIB);
        let mut inflight: Vec<(usize, u64, u64)> = Vec::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let (mut arena_rollbacks, mut releases, mut departures) = (0, 0, 0);
        for step in 0..4000 {
            let tenant = next(TENANTS as u64) as usize;
            let holds = inflight.iter().any(|&(t, ..)| t == tenant);
            let op = next(4);
            let label = format!("step {step} op {op} tenant {tenant}");
            if !pools.is_active(tenant) {
                pools.tenant_arrived(tenant);
            } else if op == 0 && !holds {
                pools.tenant_departed(tenant);
                departures += 1;
            } else if op == 1 && !inflight.is_empty() {
                let (t, host, arena) = inflight.swap_remove(next(inflight.len() as u64) as usize);
                pools.release(t, host, arena);
                releases += 1;
            } else {
                let (host, arena) = ((1 + next(4)) * GIB / 4, (1 + next(8)) * GIB / 8);
                match pools.reserve(tenant, host, arena) {
                    Ok(()) => inflight.push((tenant, host, arena)),
                    Err(RejectReason::BudgetUnavailable { tier, .. }) => {
                        arena_rollbacks += usize::from(tier == ARENA_TIER);
                    }
                    Err(other) => panic!("wrong reject: {other:?}"),
                }
            }
            assert_consistent(&pools, &label);
        }
        for (t, host, arena) in inflight.drain(..) {
            pools.release(t, host, arena);
            assert_consistent(&pools, "final release");
        }
        for t in 0..TENANTS {
            if pools.is_active(t) {
                pools.tenant_departed(t);
                assert_consistent(&pools, "final departure");
            }
        }
        assert_eq!(pools.staged, Some([0, 0]));
        assert!(arena_rollbacks > 0 && releases > 0 && departures > 0);
        assert!(pools.rebalances() > 2 * departures);
    }

    #[test]
    fn bytes_the_ledger_missed_read_as_drift() {
        let mut pools = ElasticPools::new(8 * GIB, 2 * GIB);
        pools.tenant_arrived(0);
        pools.tenant_arrived(1);
        pools.reserve(0, GIB, GIB / 2).unwrap();
        assert_eq!(pools.drift_bytes(), 0);
        // The slice changes through the tracked path, the ledger does not:
        // the O(1) check still sees the gap between the two tallies.
        pools.stage_unledgered(1, 3 << 20, 5 << 20);
        assert_eq!(pools.drift_bytes(), 8 << 20);
        assert_eq!(pools.staged, pools.scan());
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_caught_by_the_ledger() {
        let mut pools = ElasticPools::new(8 * GIB, 2 * GIB);
        pools.tenant_arrived(0);
        pools.reserve(0, GIB, GIB).unwrap();
        pools.release(0, GIB, GIB);
        pools.release(0, GIB, GIB);
    }

    #[test]
    fn quantize_pow2_rounds_down() {
        assert_eq!(quantize_pow2(0), 0);
        assert_eq!(quantize_pow2(1), 1);
        assert_eq!(quantize_pow2(GIB), GIB);
        assert_eq!(quantize_pow2(GIB + 1), GIB);
        assert_eq!(quantize_pow2(3 * GIB), 2 * GIB);
        assert_eq!(quantize_pow2(u64::MAX), 1 << 63);
    }

    #[test]
    #[should_panic(expected = "departed with staged bytes")]
    fn departure_with_staged_bytes_is_a_bug() {
        let mut pools = ElasticPools::new(8 * GIB, 2 * GIB);
        pools.tenant_arrived(0);
        pools.reserve(0, GIB, 0).unwrap();
        pools.tenant_departed(0);
    }
}
