//! Incremental delta simulation for dense strategy grids.
//!
//! A grid sweep — 17 α points × 20 parallel configs, or a per-layer
//! mixed-policy search — evaluates candidate N+1 that differs from
//! candidate N by a single knob. Full simulation re-derives everything
//! from scratch each time; the delta path reuses candidate N's work at
//! three layers:
//!
//! 1. **Profile pins.** A [`DeltaContext`] holds the `Arc<ProfileReport>`
//!    and `Arc<BilevelReport>` for each `(strategy, remat, logits)` triple
//!    it has seen, keyed by plain `Copy` comparisons — no `ModelConfig`
//!    clone, no SipHash pass, no shard lock on reuse. The context is
//!    stamped with the workload it serves; any workload change clears
//!    every pin (the divergence fallback).
//! 2. **Segment cache.** The swap-family schedule recurrence is memoized
//!    process-wide in [`memo_swap::SegmentCache`], keyed by every input of
//!    the scalar recurrence including the staging-pool state; a hit
//!    replays the staging effects and returns the memoized scalars
//!    bit-exactly (including memoized OOHM failures).
//! 3. **No timeline.** Delta cells never materialise a `Timeline` — the
//!    makespan, busy, idle, and host-peak figures come straight off the
//!    [`memo_swap::schedule::ScalarSchedule`].
//!
//! Runs from [`ProfileSource::Pinned`] are bit-identical to
//! `execute_cached` — every reuse layer keys on all of its inputs — and
//! the lockstep differential suite (`tests/delta_differential.rs`) drives
//! the two in parallel over randomized workloads and knob-adjacent
//! strategy pairs, including OOM/OOHM divergence cells, to pin that.

use crate::outcome::CellOutcome;
use crate::pipeline::{ExecutionPipeline, ExecutionReport, ProfileSource};
use crate::profiler::ProfileReport;
use crate::session::Workload;
use memo_hal::calib::Calibration;
use memo_model::config::ModelConfig;
use memo_model::trace::{IterationTrace, RematPolicy};
use memo_parallel::strategy::ParallelConfig;
use memo_plan::bilevel::BilevelReport;
use memo_plan::dispatch::PlannerKind;
use std::collections::HashMap;
use std::sync::Arc;

/// [`ProfileSource::Pinned`] telemetry of one [`DeltaContext`]:
/// how incremental its sweep was. Each context counts only its own cells,
/// so concurrent sweeps (one context per pool worker) never see each
/// other's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Pipeline runs through this context.
    pub delta_runs: u64,
    /// Runs that fell back to full simulation (caching-replay backends).
    pub full_fallbacks: u64,
    /// Profile/plan fetches served from a context pin.
    pub pin_hits: u64,
    /// Fetches that went through the global `ProfileCache`.
    pub pin_misses: u64,
    /// Context re-stamps (workload changed; every pin dropped).
    pub restamps: u64,
}

/// Everything the profiler reads besides the strategy triple. Pins are only
/// valid while the workload stamp matches. The calibration is kept as a
/// clone and compared with [`Calibration::bits_eq`] — bit-exact like the
/// fingerprint, but early-exiting instead of FNV-hashing the tier chain on
/// every cell.
#[derive(Debug, Clone)]
struct WorkloadStamp {
    model: ModelConfig,
    n_gpus: usize,
    seq_len: u64,
    batch: u64,
    calib: Calibration,
}

impl WorkloadStamp {
    fn of(w: &Workload) -> Self {
        WorkloadStamp {
            model: w.model.clone(),
            n_gpus: w.n_gpus,
            seq_len: w.seq_len,
            batch: w.batch,
            calib: w.calib.clone(),
        }
    }
}

/// The per-sweep pin key: the inputs of `profile()` that vary cell-to-cell.
type PinKey = (ParallelConfig, RematPolicy, bool);

/// The plan pin key: the profile triple plus the planner knob — bi-level
/// and whole-trace plans over the same trace are distinct artifacts.
type PlanPinKey = (ParallelConfig, RematPolicy, bool, PlannerKind);

/// Mutable per-sweep state of the delta path: pinned profile and plan
/// `Arc`s keyed by the strategy triple, valid for one workload at a time.
/// Create one per sweep (it is cheap) and pass it as
/// [`ProfileSource::Pinned`]; the first run against a new workload
/// re-stamps the context and drops every pin.
#[derive(Debug, Default)]
pub struct DeltaContext {
    stamp: Option<WorkloadStamp>,
    profiles: HashMap<PinKey, Arc<ProfileReport>>,
    plans: HashMap<PlanPinKey, Arc<BilevelReport>>,
    // One-entry MRU pins: along a delta walk, consecutive cells almost
    // always share the strategy triple, so a plain `Copy` compare beats
    // a hash-map probe on the hot path. Cleared with the maps.
    mru_profile: Option<(PinKey, Arc<ProfileReport>)>,
    mru_plan: Option<(PlanPinKey, Arc<BilevelReport>)>,
    stats: DeltaStats,
}

impl DeltaContext {
    pub fn new() -> Self {
        DeltaContext::default()
    }

    /// This context's telemetry since it was created.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Count one pinned pipeline run, and whether it fell back to full
    /// simulation.
    pub(crate) fn count_run(&mut self, full_fallback: bool) {
        self.stats.delta_runs += 1;
        self.stats.full_fallbacks += u64::from(full_fallback);
    }

    /// Drop every pin if `w` differs from the stamped workload. Called once
    /// per pinned pipeline run, *before* any pin lookup — `profile`/`plan`
    /// assume the stamp is current.
    pub(crate) fn restamp(&mut self, w: &Workload) {
        let matches = self.stamp.as_ref().is_some_and(|s| {
            // Cheap scalar fields first; the calibration walk goes last.
            s.n_gpus == w.n_gpus
                && s.seq_len == w.seq_len
                && s.batch == w.batch
                && s.model == w.model
                && s.calib.bits_eq(&w.calib)
        });
        if !matches {
            if self.stamp.is_some() {
                self.stats.restamps += 1;
            }
            self.profiles.clear();
            self.plans.clear();
            self.mru_profile = None;
            self.mru_plan = None;
            self.stamp = Some(WorkloadStamp::of(w));
        }
    }

    /// The profile for `(w, cfg, policy, logits)` — from a pin, else from
    /// the global [`crate::cache::ProfileCache`] (which the pin then
    /// shares, so repeated sweeps stay deduplicated process-wide).
    pub(crate) fn profile(
        &mut self,
        w: &Workload,
        cfg: &ParallelConfig,
        policy: RematPolicy,
        materialize_logits: bool,
    ) -> Arc<ProfileReport> {
        debug_assert!(self.stamp.is_some(), "restamp() before pin lookups");
        let key = (*cfg, policy, materialize_logits);
        if let Some((k, pin)) = &self.mru_profile {
            if *k == key {
                self.stats.pin_hits += 1;
                return Arc::clone(pin);
            }
        }
        let p = if let Some(pin) = self.profiles.get(&key) {
            self.stats.pin_hits += 1;
            Arc::clone(pin)
        } else {
            self.stats.pin_misses += 1;
            let p = crate::cache::ProfileCache::global().profile(
                w,
                cfg,
                policy,
                materialize_logits,
                true,
            );
            self.profiles.insert(key, Arc::clone(&p));
            p
        };
        self.mru_profile = Some((key, Arc::clone(&p)));
        p
    }

    /// The memory plan for the same triple plus the planner knob; `trace`
    /// must be the trace of the profile this key maps to (same contract as
    /// `ProfileCache::plan`).
    pub(crate) fn plan(
        &mut self,
        w: &Workload,
        cfg: &ParallelConfig,
        policy: RematPolicy,
        materialize_logits: bool,
        planner: PlannerKind,
        trace: &IterationTrace,
    ) -> Arc<BilevelReport> {
        debug_assert!(self.stamp.is_some(), "restamp() before pin lookups");
        let key = (*cfg, policy, materialize_logits, planner);
        if let Some((k, pin)) = &self.mru_plan {
            if *k == key {
                self.stats.pin_hits += 1;
                return Arc::clone(pin);
            }
        }
        let p = if let Some(pin) = self.plans.get(&key) {
            self.stats.pin_hits += 1;
            Arc::clone(pin)
        } else {
            self.stats.pin_misses += 1;
            let p = crate::cache::ProfileCache::global().plan(
                w,
                cfg,
                policy,
                materialize_logits,
                planner,
                trace,
                true,
            );
            self.plans.insert(key, Arc::clone(&p));
            p
        };
        self.mru_plan = Some((key, Arc::clone(&p)));
        p
    }

    /// Pinned (profile, plan) entry count — test/bench introspection.
    pub fn pinned(&self) -> (usize, usize) {
        (self.profiles.len(), self.plans.len())
    }
}

/// The TGS-best cell of a sweep, with the search fold's exact tie-break
/// (`>=`: the last enumerated of equal-TGS cells wins, matching
/// `Workload::run_best`). `None` when every cell failed.
pub fn pick_best<K: Copy>(cells: &[(K, ExecutionReport)]) -> Option<(K, &ExecutionReport)> {
    let mut best: Option<(K, &ExecutionReport, f64)> = None;
    for (k, rep) in cells {
        if let Some(tgs) = rep.outcome.metrics().map(|m| m.tgs) {
            if best.as_ref().is_none_or(|(_, _, b)| tgs >= *b) {
                best = Some((*k, rep, tgs));
            }
        }
    }
    best.map(|(k, rep, _)| (k, rep))
}

/// [`pick_best`] that never strands the caller on a fully-infeasible grid:
/// alongside the winner (if any) it returns the pick's outcome, or — when
/// every cell failed — the **least-bad failure** by
/// [`CellOutcome::failure_rank`] (any OOHM before any OOM, smallest
/// shortfall first; ties keep the first enumerated cell, matching the
/// serial fold of `Workload::run_best_or_failure`).
/// [`CellOutcome::NoValidStrategy`] for an empty grid.
pub fn pick_best_or_failure<K: Copy>(
    cells: &[(K, ExecutionReport)],
) -> (Option<(K, &ExecutionReport)>, CellOutcome) {
    if let Some((k, rep)) = pick_best(cells) {
        return (Some((k, rep)), rep.outcome.clone());
    }
    let failure = cells
        .iter()
        .map(|(_, rep)| &rep.outcome)
        .min_by_key(|out| out.failure_rank())
        .cloned()
        .unwrap_or(CellOutcome::NoValidStrategy);
    (None, failure)
}

impl Workload {
    /// Sweep a dense α grid for the MEMO token-wise policy under one
    /// strategy: `points ≥ 2` evenly spaced overrides on [0, 1], walked in
    /// ascending order so consecutive cells differ by exactly one knob (the
    /// delta order the segment cache exploits). Failed cells (OOHM at high
    /// α) are reported in place, exactly as `execute_cached` would.
    pub fn run_alpha_grid(
        &self,
        cfg: &ParallelConfig,
        points: usize,
        slots: usize,
    ) -> Vec<(f64, ExecutionReport)> {
        assert!(points >= 2, "an α grid needs at least its two endpoints");
        let mut ctx = DeltaContext::new();
        self.alpha_grid_with(cfg, points, slots, &mut ctx)
    }

    /// [`Self::run_alpha_grid`] reusing a caller-owned [`DeltaContext`]
    /// (dense 2-D sweeps share one context across strategies).
    pub fn alpha_grid_with(
        &self,
        cfg: &ParallelConfig,
        points: usize,
        slots: usize,
        ctx: &mut DeltaContext,
    ) -> Vec<(f64, ExecutionReport)> {
        (0..points)
            .map(|i| {
                let alpha = i as f64 / (points - 1) as f64;
                let rep = ExecutionPipeline::memo_at_alpha(alpha, slots).execute_from(
                    self,
                    cfg,
                    ProfileSource::Pinned(ctx),
                    None,
                );
                (alpha, rep)
            })
            .collect()
    }

    /// Sweep the per-layer mixed-policy lattice under one strategy: for
    /// each `k` in `0 ..= layers_local − slots`, the first `k` layers swap
    /// token-wise (at the solved or overridden α), the last `slots` stay
    /// retained, and the rest fully recompute. `k` ascends, so consecutive
    /// cells again differ by one knob. The top cell (`k = layers_local −
    /// slots`) is bit-identical to uniform MEMO at `slots = 2`.
    pub fn run_mixed_policy_grid(
        &self,
        cfg: &ParallelConfig,
        alpha_override: Option<f64>,
        slots: usize,
    ) -> Vec<(usize, ExecutionReport)> {
        let mut ctx = DeltaContext::new();
        self.mixed_policy_grid_with(cfg, alpha_override, slots, &mut ctx)
    }

    /// [`Self::run_mixed_policy_grid`] reusing a caller-owned context.
    pub fn mixed_policy_grid_with(
        &self,
        cfg: &ParallelConfig,
        alpha_override: Option<f64>,
        slots: usize,
        ctx: &mut DeltaContext,
    ) -> Vec<(usize, ExecutionReport)> {
        let layers_local = cfg.layers_local(self.model.n_layers);
        let max_k = layers_local.saturating_sub(slots);
        (0..=max_k)
            .map(|k| {
                let rep = ExecutionPipeline::memo_mixed(k, alpha_override, slots).execute_from(
                    self,
                    cfg,
                    ProfileSource::Pinned(ctx),
                    None,
                );
                (k, rep)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::w7;
    use memo_parallel::strategy::SystemSpec;

    fn assert_reports_equal(a: &ExecutionReport, b: &ExecutionReport, what: &str) {
        assert_eq!(a.outcome, b.outcome, "{what}: outcome");
        assert_eq!(a.bytes, b.bytes, "{what}: bytes");
        assert_eq!(a.time, b.time, "{what}: time");
        assert_eq!(a.strategy, b.strategy, "{what}: strategy");
    }

    #[test]
    fn delta_alpha_grid_is_bit_identical_to_cached_runs() {
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let grid = w.run_alpha_grid(&cfg, 17, 2);
        assert_eq!(grid.len(), 17);
        for (alpha, rep) in &grid {
            let full = ExecutionPipeline::memo_at_alpha(*alpha, 2).execute_cached(&w, &cfg, true);
            assert_reports_equal(rep, &full, &format!("alpha {alpha}"));
        }
        // The endpoints must differ (α = 0 recomputes everything, α = 1
        // swaps everything) or the grid is degenerate.
        assert_ne!(grid[0].1.time, grid[16].1.time);
    }

    #[test]
    fn delta_alpha_grid_reuses_profile_and_plan_pins() {
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        let mut ctx = DeltaContext::new();
        let grid = w.alpha_grid_with(&cfg, 17, 2, &mut ctx);
        assert_eq!(grid.len(), 17);
        let s = ctx.stats();
        assert_eq!(s.delta_runs, 17);
        assert_eq!(s.full_fallbacks, 0, "static plan never falls back");
        // One profile miss + one plan miss; every later cell pins both.
        assert_eq!(s.pin_misses, 2);
        assert_eq!(s.pin_hits, 2 * 17 - 2);
        assert_eq!(ctx.pinned(), (1, 1));
    }

    #[test]
    fn mixed_policy_grid_matches_cached_and_tops_out_at_uniform_memo() {
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let grid = w.run_mixed_policy_grid(&cfg, None, 2);
        let layers_local = cfg.layers_local(w.model.n_layers);
        assert_eq!(grid.len(), layers_local - 2 + 1);
        for (k, rep) in &grid {
            let full = ExecutionPipeline::memo_mixed(*k, None, 2).execute_cached(&w, &cfg, true);
            assert_reports_equal(rep, &full, &format!("k = {k}"));
        }
        // k = layers_local − 2 is the uniform schedule: identical metrics
        // to plain MEMO under the same strategy.
        let top = &grid.last().unwrap().1;
        let memo = ExecutionPipeline::new(SystemSpec::Memo).execute_cached(&w, &cfg, true);
        assert_eq!(top.outcome, memo.outcome);
        assert_eq!(top.bytes, memo.bytes);
        assert_eq!(top.time, memo.time);
        // Fewer swap layers stage less on the host but pay refwd compute.
        let m_top = top.outcome.metrics().expect("uniform point feasible");
        let m_zero = grid[0].1.outcome.metrics().expect("k = 0 always fits");
        assert!(m_zero.host_peak_bytes < m_top.host_peak_bytes);
        assert!(
            m_zero.iter_secs > m_top.iter_secs,
            "refwd compute costs time"
        );
    }

    #[test]
    fn context_restamps_on_workload_change() {
        let w64 = w7(8, 64);
        let w128 = w7(8, 128);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let mut ctx = DeltaContext::new();
        let a = w64.alpha_grid_with(&cfg, 3, 2, &mut ctx);
        assert_eq!(ctx.stats().restamps, 0, "the first stamp is not a re-stamp");
        let b = w128.alpha_grid_with(&cfg, 3, 2, &mut ctx);
        assert_eq!(ctx.stats().restamps, 1, "one re-stamp");
        // Both grids still match their from-scratch equivalents.
        for (w, grid) in [(&w64, &a), (&w128, &b)] {
            for (alpha, rep) in grid.iter() {
                let full =
                    ExecutionPipeline::memo_at_alpha(*alpha, 2).execute_cached(w, &cfg, true);
                assert_reports_equal(rep, &full, &format!("s = {}", w.seq_len));
            }
        }
    }

    #[test]
    fn caching_replay_backends_fall_back_to_full_simulation() {
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let mut ctx = DeltaContext::new();
        let delta = ExecutionPipeline::new(SystemSpec::MegatronLM).execute_from(
            &w,
            &cfg,
            ProfileSource::Pinned(&mut ctx),
            None,
        );
        assert_eq!(ctx.stats().full_fallbacks, 1);
        let full = ExecutionPipeline::new(SystemSpec::MegatronLM).execute_cached(&w, &cfg, true);
        assert_reports_equal(&delta, &full, "caching replay");
        assert_eq!(ctx.pinned(), (0, 0), "fallback pins nothing");
    }

    #[test]
    fn pinned_runs_take_an_observer_without_changing_the_report() {
        // One stage sequence: the observer reaches pinned runs too, and
        // only reads what the stages computed.
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let mut ctx = DeltaContext::new();
        for spec in SystemSpec::ALL_MODES {
            let pipe = ExecutionPipeline::new(spec);
            let plain = pipe.execute_cached(&w, &cfg, true);
            let mut obs = crate::observer::RunObserver::new();
            let observed =
                pipe.execute_from(&w, &cfg, ProfileSource::Pinned(&mut ctx), Some(&mut obs));
            assert_reports_equal(&plain, &observed, &format!("{spec:?}"));
            if observed.outcome.is_ok() {
                assert!(obs.timeline.is_some(), "{spec:?}: timeline captured");
            }
        }
    }

    #[test]
    fn delta_reproduces_oohm_failure_cells() {
        // α = 1.0 at a long context overflows the host (the session's
        // OOHM test pins this workload); the delta path must report the
        // identical failure, and keep doing so on the cached re-run.
        let w = w7(8, 768);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let pipe = ExecutionPipeline::memo_at_alpha(1.0, 2);
        let full = pipe.execute_cached(&w, &cfg, true);
        assert!(
            matches!(full.outcome, CellOutcome::Oohm { .. }),
            "expected OOHM, got {:?}",
            full.outcome
        );
        let mut ctx = DeltaContext::new();
        for round in 0..2 {
            let delta = pipe.execute_from(&w, &cfg, ProfileSource::Pinned(&mut ctx), None);
            assert_reports_equal(&delta, &full, &format!("round {round}"));
        }
    }

    #[test]
    fn pick_best_uses_last_wins_tie_break() {
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let grid = w.run_alpha_grid(&cfg, 5, 2);
        let (best_alpha, best) = pick_best(&grid).expect("some α is feasible");
        let best_tgs = best.outcome.metrics().unwrap().tgs;
        // Every feasible cell's TGS is ≤ the pick's, and the pick is the
        // *last* cell attaining it.
        let mut last_at_max = None;
        for (a, rep) in &grid {
            if let Some(m) = rep.outcome.metrics() {
                assert!(m.tgs <= best_tgs);
                if m.tgs == best_tgs {
                    last_at_max = Some(*a);
                }
            }
        }
        assert_eq!(Some(best_alpha), last_at_max);
    }
}
