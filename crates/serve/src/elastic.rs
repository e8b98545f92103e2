//! Elastic repartitioning of the cluster's shared memory budgets.
//!
//! The fleet has one host-staging budget and one arena budget; active
//! tenants split both evenly (eLLM's even split), so every active slice
//! has the same capacity: `total / n` per tier. Arrival of a new tenant or
//! departure of an idle one rebalances the fleet by recomputing that one
//! pair of shares, in O(1) however many tenants are active. A slice is
//! just its two used-byte counters, so bytes a tenant already staged ride
//! along; a shrink below usage over-commits the slice until it drains
//! (nothing is revoked, but every reserve on it fails meanwhile).
//!
//! Tenants are dense *slots* `0, 1, 2, …` that index the slices directly;
//! the server numbers a stream's tenant ids in first-appearance order.
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

/// Tier indices of a tenant slice's two counters.
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

/// The fleet's elastic budget pools: one even share of each budget per
/// active tenant, and each active tenant's used bytes per tier.
#[derive(Debug, Clone)]
pub struct ElasticPools {
    totals: [u64; 2],
    /// Every active slice's capacity per tier: the totals split evenly
    /// over the active tenants, recomputed on every arrival and departure.
    shares: [u64; 2],
    /// Used bytes per tier of each slot's slice; `None` while the slot's
    /// tenant is not active.
    slices: Vec<Option<[u64; 2]>>,
    active: usize,
    rebalances: u64,
    peak_active: usize,
    /// Independent reservation ledger, per tier: what the pools *should*
    /// hold given every successful reserve minus every release. Compared
    /// against the slices' own usage counters by [`drift_bytes`] — any
    /// gap means a reserve, a release or a departure lost staged bytes.
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
            totals: [host_total, arena_total],
            shares: [host_total, arena_total],
            slices: Vec::new(),
            active: 0,
            rebalances: 0,
            peak_active: 0,
            ledger: [0, 0],
            staged: Some([0, 0]),
        }
    }

    pub(crate) fn active_tenants(&self) -> usize {
        self.active
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
    /// failed-reserve rollbacks and tenant churn must never leak or
    /// double-count staged bytes.
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
        self.slices
            .iter()
            .flatten()
            .try_fold([0u64; 2], |mut sum, used| {
                for (total, &used) in sum.iter_mut().zip(used) {
                    *total = total.checked_add(used)?;
                }
                Some(sum)
            })
    }

    /// Apply `f` to `slot`'s usage counters and carry their change into
    /// the running totals.
    fn track<R>(&mut self, slot: usize, f: impl FnOnce(&mut [u64; 2]) -> R) -> R {
        let used = self
            .slices
            .get_mut(slot)
            .and_then(Option::as_mut)
            .expect("tenant is active");
        let before = *used;
        let result = f(used);
        let after = *used;
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

    pub(crate) fn is_active(&self, slot: usize) -> bool {
        self.slices.get(slot).is_some_and(Option::is_some)
    }

    /// Even split of both budgets over the active tenants. Every slice
    /// reads the shares, so usage survives and no slice is touched.
    fn rebalance(&mut self) {
        let n = self.active.max(1) as u64;
        self.shares = [self.totals[HOST_TIER] / n, self.totals[ARENA_TIER] / n];
        self.rebalances += 1;
    }

    /// First in-flight presence of the tenant in `slot`: carve a slice and
    /// shrink everyone else's. The new slice holds nothing, so the running
    /// totals do not move. Slots are dense: the slice table grows to
    /// `slot + 1` entries.
    pub fn tenant_arrived(&mut self, slot: usize) {
        assert!(!self.is_active(slot), "tenant {slot} already active");
        if slot >= self.slices.len() {
            self.slices.resize(slot + 1, None);
        }
        self.slices[slot] = Some([0, 0]);
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
        self.rebalance();
    }

    /// Last in-flight request of the tenant in `slot` finished and no more
    /// are coming: return its slice to the pool and grow everyone else's.
    pub(crate) fn tenant_departed(&mut self, slot: usize) {
        let staged = self
            .slices
            .get_mut(slot)
            .and_then(Option::take)
            .expect("departing tenant active");
        self.retally(staged, [0, 0]);
        assert_eq!(staged, [0, 0], "tenant {slot} departed with staged bytes");
        self.active -= 1;
        self.rebalance();
    }

    /// The planning budget of an active tenant: the host share, quantized
    /// down to a power of two for cache-key stability.
    pub(crate) fn quantized_host_share(&self) -> u64 {
        quantize_pow2(self.shares[HOST_TIER])
    }

    /// Stage one in-flight request's bytes against the tenant's slice:
    /// host, then arena, each against its share. The first tier that does
    /// not fit fails the reserve with its `requested` bytes and `capacity`;
    /// the host bytes are committed only together with the arena's, so an
    /// arena failure leaves the host tier as it was. Debug builds check
    /// the ledger against the slices afterwards.
    pub fn reserve(
        &mut self,
        slot: usize,
        host_bytes: u64,
        arena_bytes: u64,
    ) -> Result<(), RejectReason> {
        let requested = [host_bytes, arena_bytes];
        let shares = self.shares;
        let result = self.track(slot, |used| {
            let mut grown = *used;
            for tier in [HOST_TIER, ARENA_TIER] {
                grown[tier] = used[tier]
                    .checked_add(requested[tier])
                    .filter(|&u| u <= shares[tier])
                    .ok_or(RejectReason::BudgetUnavailable {
                        tier,
                        requested: requested[tier],
                        capacity: shares[tier],
                    })?;
            }
            *used = grown;
            Ok(())
        });
        if result.is_ok() {
            self.ledger[HOST_TIER] += host_bytes;
            self.ledger[ARENA_TIER] += arena_bytes;
        }
        debug_assert_eq!(self.drift_bytes(), 0, "reserve drifted the ledger");
        result
    }

    /// Release one in-flight request's bytes. Releasing more than the
    /// ledger holds — a double release — panics in every build rather
    /// than wrapping the ledger.
    pub fn release(&mut self, slot: usize, host_bytes: u64, arena_bytes: u64) {
        let released = [host_bytes, arena_bytes];
        for tier in [HOST_TIER, ARENA_TIER] {
            self.ledger[tier] = self.ledger[tier]
                .checked_sub(released[tier])
                .expect("released bytes the ledger does not hold (double release)");
        }
        self.track(slot, |used| {
            for tier in [HOST_TIER, ARENA_TIER] {
                used[tier] = used[tier]
                    .checked_sub(released[tier])
                    .expect("releasing more than staged");
            }
        });
        debug_assert_eq!(self.drift_bytes(), 0, "release drifted the ledger");
    }

    /// Stage bytes on `slot`'s slice through the tracked path but skip
    /// the ledger: the lost-bytes bug [`Self::drift_bytes`] must catch.
    #[cfg(test)]
    fn stage_unledgered(&mut self, slot: usize, host_bytes: u64, arena_bytes: u64) {
        self.track(slot, |used| {
            used[HOST_TIER] += host_bytes;
            used[ARENA_TIER] += arena_bytes;
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
        assert_eq!(pools.quantized_host_share(), 64 * GIB);
        pools.tenant_arrived(1);
        pools.tenant_arrived(2);
        // 96/3 = 32 GiB exact: already a power of two.
        assert_eq!(pools.shares, [32 * GIB, 8 * GIB]);
        assert_eq!(pools.quantized_host_share(), 32 * GIB);
        pools.tenant_departed(1);
        // 96/2 = 48 GiB → quantized down to 32 GiB: the cache key did NOT
        // move even though the raw share did.
        assert_eq!(pools.shares, [48 * GIB, 12 * GIB]);
        assert_eq!(pools.quantized_host_share(), 32 * GIB);
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
    fn a_shrink_below_usage_over_commits_until_the_slice_drains() {
        let mut pools = ElasticPools::new(8 * GIB, 8 * GIB);
        pools.tenant_arrived(0);
        for _ in 0..5 {
            pools.reserve(0, GIB, 0).unwrap();
        }
        // A second tenant halves the host share to 4 GiB, below tenant 0's
        // 5 GiB: nothing is revoked, but every reserve on the slice fails,
        // even one that asks the host tier for nothing.
        pools.tenant_arrived(1);
        assert_eq!(pools.slices[0], Some([5 * GIB, 0]));
        assert_eq!(
            pools.reserve(0, 0, GIB),
            Err(RejectReason::BudgetUnavailable {
                tier: HOST_TIER,
                requested: 0,
                capacity: 4 * GIB,
            })
        );
        // The newcomer's slice is a full share of its own.
        pools.reserve(1, 4 * GIB, 0).unwrap();
        // Drained back under the share, the slice admits again, up to it.
        pools.release(0, GIB, 0);
        pools.release(0, GIB, 0);
        pools.reserve(0, GIB, 0).unwrap();
        assert!(pools.reserve(0, 1, 0).is_err());
        // A departure grows the share back: the staged bytes ride along and
        // the new headroom admits more.
        pools.release(1, 4 * GIB, 0);
        pools.tenant_departed(1);
        pools.reserve(0, 4 * GIB, 0).unwrap();
        assert_eq!(pools.slices[0], Some([8 * GIB, 0]));
        assert_consistent(&pools, "after the regrowth");
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
