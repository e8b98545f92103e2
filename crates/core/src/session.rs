//! The user-facing API: describe a workload, pick a system, run.
//!
//! Beside single runs it holds the two ways of evaluating many cells: the
//! best-first strategy search (`Workload::run_best` and friends) and the
//! dense grid rows (`Workload::run_alpha_grid`,
//! `Workload::run_mixed_policy_grid`), which hold one profile and one plan
//! for every cell of their strategy. Both fold their cells with
//! [`pick_best_or_failure`].

use crate::cache::ProfileKey;
use crate::outcome::CellOutcome;
use crate::pipeline::{self, Bound, ExecutionPipeline, ExecutionReport, Floor};
use crate::profiler::ProfileReport;
use memo_hal::calib::Calibration;
use memo_model::config::ModelConfig;
use memo_parallel::search;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use std::sync::Arc;

/// Strategy grids at or below this size skip the profile cache: the
/// per-config `ProfileKey` construction and hashing exceed any reuse such a
/// grid can generate, and a small grid's keys are rarely shared with other
/// searches (DeepSpeed's Ulysses grid pairs `FullRecompute` with
/// materialized logits — no other backend asks for that profile). The
/// search runs the same best-first loop either way, so the bypass never
/// changes which configs are evaluated.
pub const SMALL_GRID_BYPASS: usize = 8;

/// One training workload: a model, a cluster, a sequence length.
///
/// ```
/// use memo_core::session::Workload;
/// use memo_model::config::ModelConfig;
/// use memo_parallel::strategy::SystemSpec;
///
/// let w = Workload::new(ModelConfig::gpt_7b(), 8, 256 * 1024);
/// let (cfg, outcome) = w.run_best(SystemSpec::Memo).expect("feasible");
/// let metrics = outcome.metrics().unwrap();
/// assert!(metrics.mfu > 0.45);
/// assert_eq!(cfg.world(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    pub model: ModelConfig,
    pub n_gpus: usize,
    pub seq_len: u64,
    pub batch: u64,
    pub calib: Calibration,
}

impl Workload {
    pub fn new(model: ModelConfig, n_gpus: usize, seq_len: u64) -> Self {
        Workload {
            model,
            n_gpus,
            seq_len,
            batch: 1,
            calib: Calibration::default(),
        }
    }

    /// Run one execution mode with an explicit parallel configuration.
    /// Every [`SystemSpec`] variant dispatches through the staged
    /// [`ExecutionPipeline`].
    pub fn run_with(&self, system: SystemSpec, cfg: &ParallelConfig) -> CellOutcome {
        self.run_report(system, cfg).outcome
    }

    /// Like [`Self::run_with`], but returning the full structured report:
    /// the cell outcome plus the byte and time accounting behind it.
    pub fn run_report(&self, system: SystemSpec, cfg: &ParallelConfig) -> ExecutionReport {
        ExecutionPipeline::new(system).execute_cached(self, cfg, true)
    }

    /// [`Self::run_report`] with a [`RunObserver`](crate::observer::RunObserver) collecting per-stage
    /// wall timing, cache statistics, the stream timeline, and the
    /// allocator event log (see `memo-obs` for the exporters).
    pub fn run_report_observed(
        &self,
        system: SystemSpec,
        cfg: &ParallelConfig,
        obs: &mut crate::observer::RunObserver,
    ) -> ExecutionReport {
        ExecutionPipeline::new(system).execute_from(self, cfg, true, Some(obs))
    }

    /// Search all valid strategies for `system` (the paper's "manually
    /// adjust ... for optimal performance", automated) and return the best
    /// outcome by TGS, with its configuration. `None` when every strategy
    /// fails (the whole table cell is X_oom / X_oohm).
    pub fn run_best(&self, system: SystemSpec) -> Option<(ParallelConfig, CellOutcome)> {
        self.search_strategies(system, true).0
    }

    /// Like [`Self::run_best`] but also reporting the dominant failure when
    /// no strategy works (for the X_oom vs X_oohm distinction in Table 3).
    pub fn run_best_or_failure(&self, system: SystemSpec) -> (Option<ParallelConfig>, CellOutcome) {
        self.run_best_or_failure_with(system, true)
    }

    /// [`Self::run_best_or_failure`], sharing profiles and static plans
    /// through the global [`crate::cache::ProfileCache`] only when
    /// `use_cache`. The uncached search is the oracle of the cache-parity
    /// tests.
    pub fn run_best_or_failure_with(
        &self,
        system: SystemSpec,
        use_cache: bool,
    ) -> (Option<ParallelConfig>, CellOutcome) {
        match self.search_strategies(system, use_cache) {
            (Some((cfg, out)), _) => (Some(cfg), out),
            (None, failure) => (None, failure),
        }
    }

    /// One pass over the strategy space, capturing both the TGS-best
    /// success and the least-bad failure: OOHM dominates OOM (GPU memory
    /// sufficed, the host gave out), and within a kind the smallest
    /// shortfall wins. [`CellOutcome::NoValidStrategy`] when the space is
    /// empty.
    ///
    /// The search runs on the caller's thread. The fold
    /// ([`pick_best_or_failure`]) runs in enumeration-index order over the
    /// configs [`Self::evaluate_best_first`] evaluated, so its `>=`
    /// tie-break keeps its "last enumerated wins" semantics bit-exactly
    /// (golden parity depends on this — DESIGN.md). The configs it skips
    /// can neither win nor tie the pick, nor be the least-bad failure, and
    /// a certified config enters as its certificate's `Oom`: the exhaustive
    /// fold's pick and failure kind.
    fn search_strategies(
        &self,
        system: SystemSpec,
        use_cache: bool,
    ) -> (Option<(ParallelConfig, CellOutcome)>, CellOutcome) {
        let gpn = self.calib.gpus_per_node.min(self.n_gpus);
        let configs = search::enumerate_configs(system, &self.model, self.n_gpus, gpn);
        // Tiny grids (DeepSpeed's Ulysses axis is 4 configs at 8 GPUs) lose
        // more to cache fingerprinting than it can return. Either way the
        // outcome is identical: the cache is a pure memo.
        let use_cache = use_cache && configs.len() > SMALL_GRID_BYPASS;
        let pipeline = ExecutionPipeline::new(system);
        let outcomes = self.evaluate_best_first(&pipeline, configs, use_cache);
        pick_best_or_failure(outcomes, |(_, out)| out)
    }

    /// Evaluate only the configs the pick and the least-bad failure need,
    /// for either memory backend, and read a liveness peak only where the
    /// fold reads the certificate it decides:
    ///
    /// 1. One pass profiles and [bounds](ExecutionPipeline::bound) every
    ///    config, under one calibration fingerprint: a TGS bound (exact
    ///    for a static plan) or *cannot succeed*, and the [`Floor`] of its
    ///    liveness certificate. No peak is read.
    /// 2. The bounded configs are visited one at a time, in [`best_first`]
    ///    order. A visit certifies first: a floor above the usable bytes is
    ///    `X_oom` whatever the peak, and its exact `needed` is deferred;
    ///    otherwise the peak is streamed and a certified config takes its
    ///    certificate's `Oom`. Only an uncertified config runs stages 2–5,
    ///    on the profile already held.
    /// 3. Only if none succeeded: the *cannot succeed* configs are visited
    ///    the same way, for the least-bad failure. Then a deferred config's
    ///    `needed` is computed only while its floor ranks at or before the
    ///    incumbent failure ([`read_deferred`]): a known OOHM, or a smaller
    ///    known shortfall, leaves the rest unread.
    ///
    /// Certified and deferred configs return no TGS, so they move neither
    /// the incumbent nor the pruning: the visits, and so the evaluated set,
    /// are those of certifying every config up front. Returns the evaluated
    /// and certified configs with their outcomes in enumeration order; a
    /// deferred config left unread could be neither the pick nor the
    /// least-bad failure, and is left out.
    fn evaluate_best_first(
        &self,
        pipeline: &ExecutionPipeline,
        configs: Vec<ParallelConfig>,
        use_cache: bool,
    ) -> Vec<(ParallelConfig, CellOutcome)> {
        let calib = use_cache.then(|| self.calib.fingerprint());
        let bounded: Vec<(Option<ProfileKey>, Arc<ProfileReport>, Bound)> = configs
            .iter()
            .map(|cfg| {
                let key = calib.map(|calib| pipeline.profile_key(self, cfg, calib));
                let p = pipeline.keyed_profile(self, cfg, key.as_ref());
                let bound = pipeline.bound(self, cfg, &p);
                (key, p, bound)
            })
            .collect();
        let capacity = self.calib.usable_gpu_memory();
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; configs.len()];
        // Certified `X_oom` configs whose `needed` is yet to be read, with
        // their floors.
        let mut deferred: Vec<(usize, u128)> = Vec::new();
        // Certify config `i`, then evaluate it unless certified; its TGS.
        let mut visit = |i: usize| {
            let (key, p, bound) = &bounded[i];
            let out = match bound.floor {
                Floor::PlusPeak(bytes) if bytes > u128::from(capacity) => {
                    deferred.push((i, bytes));
                    return None;
                }
                floor => match floor.certificate(p, capacity) {
                    Some(needed) => CellOutcome::Oom { needed, capacity },
                    None => {
                        let out = pipeline.execute_profiled(self, &configs[i], p, key.as_ref());
                        debug_assert!(
                            pipeline.replays_allocator()
                                || out.metrics().is_none_or(|m| bound
                                    .tgs
                                    .is_some_and(|b| b.to_bits() == m.tgs.to_bits())),
                            "a static plan's bound is its exact TGS: {bound:?} vs {out:?}"
                        );
                        out
                    }
                },
            };
            let tgs = out.metrics().map(|m| m.tgs);
            outcomes[i] = Some(out);
            tgs
        };
        let (mut open, mut bounds, mut cannot_succeed) = (Vec::new(), Vec::new(), Vec::new());
        for (i, (_, _, bound)) in bounded.iter().enumerate() {
            match bound.tgs {
                Some(tgs) => {
                    open.push(i);
                    bounds.push(tgs);
                }
                None => cannot_succeed.push(i),
            }
        }
        let mut feasible = false;
        best_first(&bounds, |k| {
            let tgs = visit(open[k]);
            feasible |= tgs.is_some();
            tgs
        });
        if !feasible {
            for i in cannot_succeed {
                visit(i);
            }
            read_deferred(&mut outcomes, deferred, capacity, |i, floor| {
                pipeline::plus_peak(floor, &bounded[i].1)
            });
        }
        configs
            .into_iter()
            .zip(outcomes)
            .filter_map(|(cfg, out)| Some((cfg, out?)))
            .collect()
    }

    /// Sweep a dense α grid for the MEMO token-wise policy under one
    /// strategy: `points ≥ 2` evenly spaced overrides on [0, 1], in
    /// ascending order. Failed cells (OOHM at high α) are reported in
    /// place, exactly as `execute_cached` would report them.
    pub fn run_alpha_grid(
        &self,
        cfg: &ParallelConfig,
        points: usize,
        slots: usize,
    ) -> Vec<(f64, ExecutionReport)> {
        assert!(points >= 2, "an α grid needs at least its two endpoints");
        self.run_row(
            cfg,
            (0..points).map(|i| {
                let alpha = i as f64 / (points - 1) as f64;
                (alpha, ExecutionPipeline::memo_at_alpha(alpha, slots))
            }),
        )
    }

    /// Sweep the per-layer mixed-policy lattice under one strategy: for
    /// each `k` in `0 ..= layers_local − slots`, the first `k` layers swap
    /// token-wise (at the solved or overridden α), the last `slots` stay
    /// retained, and the rest fully recompute. The top cell (`k =
    /// layers_local − slots`) is bit-identical to uniform MEMO at `slots =
    /// 2`.
    pub fn run_mixed_policy_grid(
        &self,
        cfg: &ParallelConfig,
        alpha_override: Option<f64>,
        slots: usize,
    ) -> Vec<(usize, ExecutionReport)> {
        let max_k = cfg.layers_local(self.model.n_layers).saturating_sub(slots);
        self.run_row(
            cfg,
            (0..=max_k).map(|k| (k, ExecutionPipeline::memo_mixed(k, alpha_override, slots))),
        )
    }

    /// One grid row: every cell runs under `cfg` with the same remat
    /// policy and planner, so the row looks its profile up once and its
    /// static plan at most once, and runs stages 2–5 of every cell on
    /// them ([`ExecutionPipeline::execute_row`]).
    fn run_row<K>(
        &self,
        cfg: &ParallelConfig,
        cells: impl Iterator<Item = (K, ExecutionPipeline)>,
    ) -> Vec<(K, ExecutionReport)> {
        let mut profile = None;
        let mut plan = None;
        cells
            .map(|(key, pipe)| {
                let (p, profile_key) = profile.get_or_insert_with(|| pipe.row_profile(self, cfg));
                (key, pipe.execute_row(self, cfg, p, profile_key, &mut plan))
            })
            .collect()
    }
}

/// The TGS-best of `cells`, or the least-bad failure when none succeeded —
/// the one fold of the strategy search and the dense grids. `outcome`
/// reads a cell's [`CellOutcome`].
///
/// - On equal TGS, `>=` keeps the last cell in iteration order, as
///   `Iterator::max_by` does.
/// - Among failures, the first cell of minimum
///   [`CellOutcome::failure_rank`] wins: any OOHM before any OOM, smallest
///   shortfall first.
///
/// Returns the pick with its outcome, or `None` with the least-bad failure
/// ([`CellOutcome::NoValidStrategy`] when `cells` is empty).
pub fn pick_best_or_failure<T>(
    cells: impl IntoIterator<Item = T>,
    outcome: impl Fn(&T) -> &CellOutcome,
) -> (Option<T>, CellOutcome) {
    let mut best: Option<(T, f64)> = None;
    let mut failure: Option<(u128, CellOutcome)> = None;
    for cell in cells {
        let out = outcome(&cell);
        match out.metrics().map(|m| m.tgs) {
            Some(tgs) => {
                if best.as_ref().is_none_or(|(_, b)| tgs >= *b) {
                    best = Some((cell, tgs));
                }
            }
            None => {
                let rank = out.failure_rank();
                if failure.as_ref().is_none_or(|(r, _)| rank < *r) {
                    failure = Some((rank, out.clone()));
                }
            }
        }
    }
    match best {
        Some((cell, _)) => {
            let out = outcome(&cell).clone();
            (Some(cell), out)
        }
        None => (
            None,
            failure.map_or(CellOutcome::NoValidStrategy, |(_, out)| out),
        ),
    }
}

/// Give the deferred `X_oom` configs (index, floor) their `Oom` on
/// `capacity` bytes, with `needed(i, floor)` (at least `floor`, before
/// saturation), only where one can still be [`pick_best_or_failure`]'s
/// least-bad failure over `outcomes`: the first of minimum
/// [`CellOutcome::failure_rank`]. They are read smallest floor first, and
/// the first whose floor ranks after the incumbent failure (a higher
/// shortfall, or an equal one at a later index) ends the pass: its
/// `needed`, and every later one's, ranks after the incumbent too. Left
/// out, they leave the fold's failure as it would be with every `needed`
/// read.
fn read_deferred(
    outcomes: &mut [Option<CellOutcome>],
    mut deferred: Vec<(usize, u128)>,
    capacity: u64,
    mut needed: impl FnMut(usize, u128) -> u128,
) {
    let oom = |needed: u128| CellOutcome::Oom {
        needed: pipeline::saturate(needed),
        capacity,
    };
    let mut incumbent = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, out)| Some((out.as_ref()?.failure_rank(), i)))
        .min();
    deferred.sort_unstable_by_key(|&(i, floor)| (oom(floor).failure_rank(), i));
    for (i, floor) in deferred {
        if incumbent.is_some_and(|known| (oom(floor).failure_rank(), i) > known) {
            break;
        }
        let out = oom(needed(i, floor));
        let rank = (out.failure_rank(), i);
        incumbent = Some(incumbent.map_or(rank, |known| known.min(rank)));
        outcomes[i] = Some(out);
    }
}

/// Best-first evaluation under upper bounds. Visits the indices of `bounds`
/// one at a time in descending bound order (stable, so equal bounds keep
/// index order); `evaluate` returns each index's score, `None` for an
/// infeasible one. Stops before the first index whose bound is strictly
/// below the best score so far: that index, and every one after it, cannot
/// beat or tie the incumbent.
///
/// A tie with the incumbent is still evaluated (the caller's fold keeps the
/// last enumerated of equals), and until some index is feasible nothing is
/// pruned. A non-finite bound proves nothing: it sorts first, as `+∞`, and
/// is never pruned. The evaluated sequence depends only on the bounds and
/// the scores.
fn best_first(bounds: &[f64], mut evaluate: impl FnMut(usize) -> Option<f64>) {
    let key = |i: usize| {
        let b = bounds[i];
        if b.is_finite() {
            b
        } else {
            f64::INFINITY
        }
    };
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_by(|&a, &b| key(b).total_cmp(&key(a)));
    let mut incumbent = f64::NEG_INFINITY;
    for i in order {
        if pruned(key(i), incumbent) {
            break;
        }
        if let Some(score) = evaluate(i) {
            incumbent = incumbent.max(score);
        }
    }
}

/// The stopping rule of [`best_first`]: strictly below, so a tie with the
/// incumbent is evaluated and a NaN bound never prunes.
fn pruned(bound: f64, incumbent: f64) -> bool {
    bound < incumbent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheStats, CacheStatsScope};
    use crate::pipeline::Screen;
    use crate::testutil::w7;
    use memo_parallel::pool::{PoolStats, PoolStatsScope};
    use memo_swap::alpha::BindingConstraint;

    #[test]
    fn memo_beats_baselines_at_moderate_length() {
        // 7B on 8 GPUs at 256K: Table 3 has MEMO ≈ 53.6%, Megatron ≈ 29%,
        // DeepSpeed ≈ 23%. Require the ordering and rough bands.
        let w = w7(8, 256);
        let memo = w.run_with(SystemSpec::Memo, &ParallelConfig::megatron(4, 2, 1, 1));
        let mega = w.run_with(
            SystemSpec::MegatronLM,
            &ParallelConfig::megatron(4, 2, 1, 1),
        );
        let ds = w.run_with(SystemSpec::DeepSpeed, &ParallelConfig::ulysses(8, 1));
        let m_mfu = memo.mfu().expect("MEMO must fit 256K");
        let g_mfu = mega.mfu().expect("Megatron must fit 256K");
        assert!(m_mfu > g_mfu, "MEMO {m_mfu} vs Megatron {g_mfu}");
        if let Some(d_mfu) = ds.mfu() {
            assert!(m_mfu > d_mfu, "MEMO {m_mfu} vs DeepSpeed {d_mfu}");
        }
        assert!(m_mfu > 0.40 && m_mfu < 0.62, "MEMO MFU {m_mfu} out of band");
    }

    #[test]
    fn small_grids_bypass_the_cache_without_changing_the_pick() {
        // DeepSpeed's Ulysses axis at 8 GPUs enumerates 4 configs — under
        // SMALL_GRID_BYPASS — so a default search must not touch the
        // profile cache at all, and still pick exactly what the uncached
        // oracle picks.
        let w = w7(8, 64);
        let gpn = w.calib.gpus_per_node.min(w.n_gpus);
        let grid = search::enumerate_configs(SystemSpec::DeepSpeed, &w.model, w.n_gpus, gpn);
        assert!(
            !grid.is_empty() && grid.len() <= SMALL_GRID_BYPASS,
            "Ulysses grid ({}) should sit under the bypass threshold",
            grid.len()
        );
        // The scopes count this thread's lookups only, so concurrent tests
        // sharing the global cache cannot move them. The search runs on
        // this thread, so every lookup it made would land here.
        let oracle = w.run_best_or_failure_with(SystemSpec::DeepSpeed, false);
        let scope = CacheStatsScope::enter();
        let default = w.run_best_or_failure(SystemSpec::DeepSpeed);
        assert_eq!(
            scope.finish(),
            CacheStats::default(),
            "bypass must skip the cache"
        );
        assert_eq!(default, oracle);

        // A Megatron-family grid is over the threshold and still uses it.
        let big = search::enumerate_configs(SystemSpec::Memo, &w.model, w.n_gpus, gpn);
        assert!(big.len() > SMALL_GRID_BYPASS);
        let scope = CacheStatsScope::enter();
        let _ = w.run_best(SystemSpec::Memo);
        let s = scope.finish();
        assert!(s.hits + s.misses > 0, "large grids still use the cache");
    }

    #[test]
    fn default_searches_start_no_pool_batch() {
        // MEMO at 7B/8 GPUs/256K: a grid over SMALL_GRID_BYPASS, so the
        // search uses the cache, and every lookup and pool batch it makes
        // lands in this thread's scopes.
        let w = w7(8, 256);
        let gpn = w.calib.gpus_per_node.min(w.n_gpus);
        let grid = search::enumerate_configs(SystemSpec::Memo, &w.model, w.n_gpus, gpn);
        assert!(grid.len() > SMALL_GRID_BYPASS);
        let pool = PoolStatsScope::enter();
        let cache = CacheStatsScope::enter();
        let (cfg, out) = w.run_best_or_failure(SystemSpec::Memo);
        let lookups = cache.finish();
        assert_eq!(pool.finish(), PoolStats::default(), "no fan-out");
        assert!(lookups.hits + lookups.misses > 0, "{lookups:?}");
        assert!(cfg.is_some() && out.is_ok(), "{out:?}");
    }

    /// Runs [`best_first`] on `bounds`, scoring index `i` with `scores[i]`,
    /// and returns the indices it evaluated, in order.
    fn best_first_order(bounds: &[f64], scores: &[Option<f64>]) -> Vec<usize> {
        let mut order = Vec::new();
        best_first(bounds, |i| {
            order.push(i);
            scores[i]
        });
        order
    }

    #[test]
    fn best_first_stops_at_the_first_bound_below_the_incumbent() {
        // Bounds descend with the index; index 1's score (9.0) prunes
        // everything bounded strictly below it.
        let bounds = [10.0, 9.5, 9.2, 9.1, 9.0, 8.9, 8.0, 7.0, 6.0];
        let mut scores = vec![None; bounds.len()];
        scores[1] = Some(9.0);
        assert_eq!(best_first_order(&bounds, &scores), [0, 1, 2, 3, 4]);
        // A late incumbent stops the search right after it: index 6's
        // bound (8.0) is already below 8.5.
        let mut scores = vec![None; bounds.len()];
        scores[5] = Some(8.5);
        assert_eq!(best_first_order(&bounds, &scores), [0, 1, 2, 3, 4, 5]);
        // Enumeration order is not bound order: the sort is by bound,
        // stable among equals.
        let bounds = [1.0, 5.0, 3.0, 5.0, 2.0, 4.0];
        let scores = [None, Some(0.5), None, None, None, None];
        assert_eq!(best_first_order(&bounds, &scores), [1, 3, 5, 2, 4, 0]);
        let scores = [None, None, Some(2.0), None, None, None];
        assert_eq!(best_first_order(&bounds, &scores), [1, 3, 5, 2, 4]);
        assert!(best_first_order(&[], &[]).is_empty());
    }

    #[test]
    fn best_first_evaluates_a_tie_with_the_incumbent() {
        // Index 4's bound equals the incumbent: it could tie, and the fold
        // keeps the last enumerated of equals, so it must be evaluated.
        let bounds = [10.0, 10.0, 10.0, 10.0, 7.0, 6.0];
        let scores = [Some(7.0), None, None, None, Some(7.0), None];
        assert_eq!(best_first_order(&bounds, &scores), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn best_first_never_prunes_non_finite_bounds() {
        // A non-finite bound proves nothing: it sorts first and is always
        // evaluated, however good the incumbent.
        let bounds = [1.0, f64::NAN, f64::NEG_INFINITY, 50.0, f64::INFINITY, 2.0];
        let scores = [None, None, None, Some(40.0), None, None];
        assert_eq!(best_first_order(&bounds, &scores), [1, 2, 4, 3]);
        let bounds = [f64::NAN, 1.0, -f64::NAN, f64::NEG_INFINITY, 2.0, 3.0];
        let scores = [None, None, None, None, None, Some(100.0)];
        assert_eq!(best_first_order(&bounds, &scores), [0, 2, 3, 5]);
    }

    mod deferred_reads {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn deferred_needs_are_read_only_where_the_fold_reads_them(
                cells in prop::collection::vec((0u8..6, 0u64..48, 0u64..16), 1..12),
            ) {
                // Each cell is unevaluated (0), an OOHM (1), an OOM (2), a
                // degenerate timing (3), no valid strategy (4), or deferred
                // (5) with a floor above the capacity and a peak on top. The
                // fold over what `read_deferred` reads must be the fold over
                // every `needed`.
                let capacity = 32;
                let (mut known, mut all, mut deferred) = (Vec::new(), Vec::new(), Vec::new());
                for (i, &(kind, bytes, peak)) in cells.iter().enumerate() {
                    let out = match kind {
                        0 => None,
                        1 => Some(CellOutcome::Oohm { needed: capacity + 1 + bytes, capacity }),
                        2 => Some(CellOutcome::Oom { needed: capacity + 1 + bytes, capacity }),
                        3 => Some(CellOutcome::Degenerate { iter_secs: 0.0 }),
                        4 => Some(CellOutcome::NoValidStrategy),
                        _ => {
                            let floor = u128::from(capacity + 1 + bytes);
                            deferred.push((i, floor));
                            all.push(Some(CellOutcome::Oom {
                                needed: capacity + 1 + bytes + peak,
                                capacity,
                            }));
                            known.push(None);
                            continue;
                        }
                    };
                    known.push(out.clone());
                    all.push(out);
                }
                let mut reads = 0;
                read_deferred(&mut known, deferred.clone(), capacity, |i, floor| {
                    reads += 1;
                    floor + u128::from(cells[i].2)
                });
                let fold = |outs: &[Option<CellOutcome>]| {
                    pick_best_or_failure(outs.iter().flatten(), |out| out).1
                };
                prop_assert_eq!(fold(&known), fold(&all));
                // A read `needed` is the real one; an OOHM leaves none to read.
                for (i, out) in known.iter().enumerate() {
                    prop_assert!(out.is_none() || *out == all[i]);
                }
                let oohm = all.iter().flatten().any(|o| matches!(o, CellOutcome::Oohm { .. }));
                prop_assert!(!oohm || reads == 0);
                prop_assert!(reads <= deferred.len());
            }
        }
    }

    #[test]
    fn deferred_needs_beat_a_worse_known_failure_and_skip_a_better_one() {
        // Known failures 40 and 35 bytes short; deferred floors 10 (with a
        // peak of 50, so 60 short), 20 (read: its floor ranks before the
        // incumbent; 20 short) and 45 (skipped: after the incumbent).
        let capacity = 100;
        let oom = |short: u64| {
            Some(CellOutcome::Oom {
                needed: capacity + short,
                capacity,
            })
        };
        let mut outcomes = vec![oom(40), None, None, oom(35), None];
        let deferred =
            [(1, 10u128), (2, 20), (4, 45)].map(|(i, short)| (i, u128::from(capacity) + short));
        let mut read = Vec::new();
        read_deferred(&mut outcomes, deferred.to_vec(), capacity, |i, floor| {
            read.push(i);
            floor + if i == 1 { 50 } else { 0 }
        });
        assert_eq!(read, [1, 2]);
        assert_eq!(outcomes, [oom(40), oom(60), oom(20), oom(35), None]);
        let (_, failure) = pick_best_or_failure(outcomes.iter().flatten(), |out| out);
        assert_eq!(failure, oom(20).unwrap());
    }

    #[test]
    fn best_first_without_a_feasible_result_evaluates_everything() {
        let bounds: Vec<f64> = (0..11).map(|i| (i * 7 % 11) as f64).collect();
        let order = best_first_order(&bounds, &[None; 11]);
        // Every index, best bound first.
        let visited: Vec<f64> = order.iter().map(|&i| bounds[i]).collect();
        assert_eq!(visited, (0..11).rev().map(f64::from).collect::<Vec<_>>());
    }

    /// The strategy-search grids of the pruning tests: the
    /// `tests/search_parallel.rs` cells (7B, 8 GPUs, 64K / 256K / 1024K),
    /// 7B on 8 GPUs at 2048K (infeasible in every mode, so every search
    /// ends in the failure fold; the static-plan ones know an OOHM), two
    /// search-short shapes (7B on 4 GPUs at 2K tokens per GPU, 65B on
    /// 16 GPUs at 4K tokens per GPU) on 512 GiB DRAM and 16 GB/s PCIe, and
    /// 7B on four 2 GiB GPUs at 8K, where no strategy's parameters fit (every
    /// config is certified `X_oom` and no OOHM is known).
    fn pruning_grids() -> Vec<Workload> {
        let mut cells: Vec<Workload> = [64, 256, 1024, 2048].map(|s| w7(8, s)).to_vec();
        for (model, n_gpus, per_gpu) in [
            (ModelConfig::gpt_7b(), 4usize, 2u64 << 10),
            (ModelConfig::gpt_65b(), 16, 4 << 10),
        ] {
            let mut w = Workload::new(model, n_gpus, per_gpu * n_gpus as u64);
            w.calib.set_host_memory_bytes(512 << 30);
            w.calib.set_pcie_bandwidth(16e9);
            cells.push(w);
        }
        let mut small_gpu = Workload::new(ModelConfig::gpt_7b(), 4, 8 << 10);
        small_gpu.calib.gpu_memory_bytes = 2 << 30;
        cells.push(small_gpu);
        cells
    }

    /// The static-plan modes of [`SystemSpec::ALL_MODES`].
    fn static_modes() -> impl Iterator<Item = SystemSpec> {
        SystemSpec::ALL_MODES
            .into_iter()
            .filter(|&spec| !ExecutionPipeline::new(spec).replays_allocator())
    }

    /// Every config of `spec`'s grid on `w`, with its screen and the
    /// outcome [`Workload::run_with`] reports for it.
    fn screened_grid(w: &Workload, spec: SystemSpec) -> Vec<(ParallelConfig, Screen, CellOutcome)> {
        let pipeline = ExecutionPipeline::new(spec);
        let gpn = w.calib.gpus_per_node.min(w.n_gpus);
        search::enumerate_configs(spec, &w.model, w.n_gpus, gpn)
            .into_iter()
            .map(|cfg| {
                let p = pipeline.profile(w, &cfg, true);
                let screen = pipeline.screen(w, &cfg, &p);
                (cfg, screen, w.run_with(spec, &cfg))
            })
            .collect()
    }

    /// The outcome the search folds for a config: its certificate's `Oom`
    /// when certified, else `out`, what [`Workload::run_with`] reports.
    fn search_outcome(w: &Workload, screen: Screen, out: &CellOutcome) -> CellOutcome {
        match screen {
            Screen::MustOom { needed } => CellOutcome::Oom {
                needed,
                capacity: w.calib.usable_gpu_memory(),
            },
            _ => out.clone(),
        }
    }

    /// The documented fold over every enumerated config, one by one: `>=`
    /// on TGS (last enumerated wins among equals), minimum `failure_rank`
    /// among failures.
    fn exhaustive_fold(
        cells: impl IntoIterator<Item = (ParallelConfig, CellOutcome)>,
    ) -> (Option<ParallelConfig>, CellOutcome) {
        let mut best: Option<(ParallelConfig, CellOutcome, f64)> = None;
        let mut failure = CellOutcome::NoValidStrategy;
        for (cfg, out) in cells {
            match out.metrics().map(|m| m.tgs) {
                Some(tgs) if best.as_ref().is_none_or(|(_, _, b)| tgs >= *b) => {
                    best = Some((cfg, out, tgs));
                }
                Some(_) => {}
                None if out.failure_rank() < failure.failure_rank() => failure = out,
                None => {}
            }
        }
        match best {
            Some((cfg, out, _)) => (Some(cfg), out),
            None => (None, failure),
        }
    }

    #[test]
    fn replay_bound_is_at_least_the_replayed_tgs() {
        let caching = [
            SystemSpec::MegatronLM,
            SystemSpec::MegatronKeepAll,
            SystemSpec::DeepSpeed,
        ];
        let (mut feasible, mut below_best) = (0, 0);
        for w in pruning_grids() {
            let gpn = w.calib.gpus_per_node.min(w.n_gpus);
            for spec in caching {
                let pipeline = ExecutionPipeline::new(spec);
                assert!(pipeline.replays_allocator(), "{spec:?}");
                let mut best = f64::NEG_INFINITY;
                let mut bounds = Vec::new();
                for cfg in search::enumerate_configs(spec, &w.model, w.n_gpus, gpn) {
                    let p = pipeline.profile(&w, &cfg, true);
                    let bound = pipeline.replay_tgs_bound(&w, &cfg, &p);
                    assert!(bound.is_finite(), "{spec:?} {}", cfg.describe());
                    bounds.push(bound);
                    let out = pipeline.execute_profiled(&w, &cfg, &p, None);
                    assert_eq!(out, w.run_with(spec, &cfg), "{spec:?} {}", cfg.describe());
                    if let Some(m) = out.metrics() {
                        assert!(
                            m.tgs <= bound,
                            "{spec:?} {} @ {}: replayed TGS {} above its bound {bound}",
                            cfg.describe(),
                            w.seq_len,
                            m.tgs
                        );
                        feasible += 1;
                        best = best.max(m.tgs);
                    }
                }
                below_best += bounds.iter().filter(|&&b| b < best).count();
            }
        }
        // The grids exercise the bound: feasible replays, and prunable ones.
        assert!(feasible > 0 && below_best > 0, "{feasible} / {below_best}");
    }

    #[test]
    fn replay_must_oom_implies_oom() {
        let caching = [
            SystemSpec::MegatronLM,
            SystemSpec::MegatronKeepAll,
            SystemSpec::DeepSpeed,
        ];
        let (mut certified, mut deferred) = (0, 0);
        for w in pruning_grids() {
            let gpn = w.calib.gpus_per_node.min(w.n_gpus);
            for spec in caching {
                let pipeline = ExecutionPipeline::new(spec);
                let mut best = f64::NEG_INFINITY;
                let mut certified_bounds = Vec::new();
                for cfg in search::enumerate_configs(spec, &w.model, w.n_gpus, gpn) {
                    let p = pipeline.profile(&w, &cfg, true);
                    let out = w.run_with(spec, &cfg);
                    if let Some(m) = out.metrics() {
                        best = best.max(m.tgs);
                    }
                    if matches!(pipeline.screen(&w, &cfg, &p), Screen::MustOom { .. }) {
                        assert!(
                            matches!(out, CellOutcome::Oom { .. }),
                            "{spec:?} {} @ {}: certified, but {out:?}",
                            cfg.describe(),
                            w.seq_len
                        );
                        certified += 1;
                        certified_bounds.push(pipeline.replay_tgs_bound(&w, &cfg, &p));
                    }
                }
                // A certified config the bound alone would have replayed.
                if best.is_finite() {
                    deferred += certified_bounds.iter().filter(|&&b| b >= best).count();
                }
            }
        }
        assert!(certified > 0 && deferred > 0, "{certified} / {deferred}");
    }

    #[test]
    fn static_screen_is_exact() {
        let (mut exact, mut cannot_succeed) = (0, 0);
        for w in pruning_grids() {
            for spec in static_modes() {
                for (_, screen, out) in screened_grid(&w, spec) {
                    let at = || format!("{spec:?} @ {}: {screen:?} vs {out:?}", w.seq_len);
                    match (screen, out.metrics()) {
                        (Screen::Bound(tgs), Some(m)) => {
                            assert_eq!(tgs.to_bits(), m.tgs.to_bits(), "{}", at());
                            exact += 1;
                        }
                        // Only stage 3 can fail a bounded config.
                        (Screen::Bound(_), None) => {
                            assert!(matches!(out, CellOutcome::Oom { .. }), "{}", at())
                        }
                        (Screen::CannotSucceed, m) => {
                            assert!(m.is_none(), "{}", at());
                            cannot_succeed += 1;
                        }
                        // `static_certificate_implies_oom` checks these.
                        (Screen::MustOom { .. }, _) => {}
                    }
                }
            }
        }
        assert!(
            exact > 0 && cannot_succeed > 0,
            "{exact} / {cannot_succeed}"
        );
    }

    #[test]
    fn static_certificate_implies_oom() {
        let (mut certified, mut beside_feasible) = (0, 0);
        for w in pruning_grids() {
            for spec in static_modes() {
                let rows = screened_grid(&w, spec);
                let feasible = rows.iter().any(|(_, _, out)| out.is_ok());
                for (_, screen, out) in rows {
                    if matches!(screen, Screen::MustOom { .. }) {
                        assert!(
                            matches!(out, CellOutcome::Oom { .. }),
                            "{spec:?} @ {}: certified, but {out:?}",
                            w.seq_len
                        );
                        certified += 1;
                        beside_feasible += usize::from(feasible);
                    }
                }
            }
        }
        // Certified configs in grids the search prunes, and in grids it
        // folds for the least-bad failure.
        assert!(
            beside_feasible > 0 && certified > beside_feasible,
            "{certified} / {beside_feasible}"
        );
    }

    #[test]
    fn static_search_plans_fewer_configs_than_its_grid() {
        // A serial, cached TensorHybrid search on a feasible cell, cold: the
        // PCIe rate keys its profiles and plans apart from every other
        // test's. Each config is profiled once, so the lookups beyond one
        // per config are the plans.
        let mut w = w7(8, 256);
        w.calib.set_pcie_bandwidth(23.5e9);
        let gpn = w.calib.gpus_per_node.min(w.n_gpus);
        let configs = search::enumerate_configs(SystemSpec::TensorHybrid, &w.model, w.n_gpus, gpn)
            .len() as u64;
        assert!(configs > SMALL_GRID_BYPASS as u64);
        let scope = CacheStatsScope::enter();
        let (cfg, out) = w.run_best_or_failure(SystemSpec::TensorHybrid);
        let lookups = scope.finish();
        assert!(cfg.is_some() && out.is_ok(), "{out:?}");
        assert_eq!(lookups.hits, 0, "a cold search");
        let plans = lookups.misses - configs;
        assert!(
            plans > 0 && plans < configs,
            "{plans} plans for {configs} configs"
        );
    }

    #[test]
    fn pruned_search_matches_the_exhaustive_fold() {
        // The oracle folds every config's search outcome: its certificate's
        // `Oom` when certified, else its `run_with` outcome. Static-plan
        // searches reach each branch of the pruning: bounded configs pruned
        // beside a feasible pick, and all failed, with or without an OOHM
        // known, where no certified config is planned. A serial, cached
        // search looks each config's profile up once and each evaluated
        // config's plan once, so its lookups count its plans.
        let (mut pruned, mut certified_with_oohm, mut certified_oom_only) = (0, 0, 0);
        for w in pruning_grids() {
            for spec in SystemSpec::ALL_MODES {
                let rows = screened_grid(&w, spec);
                let n = rows.len() as u64;
                // A small grid bypasses the cache: nothing to count.
                if !ExecutionPipeline::new(spec).replays_allocator() && n > SMALL_GRID_BYPASS as u64
                {
                    let scope = CacheStatsScope::enter();
                    let _ = w.run_best_or_failure(spec);
                    let lookups = scope.finish();
                    let plans = lookups.hits + lookups.misses - n;
                    let count = |f: &dyn Fn(&Screen) -> bool| {
                        rows.iter().filter(|(_, s, _)| f(s)).count() as u64
                    };
                    let best = rows
                        .iter()
                        .filter_map(|(_, _, out)| out.metrics().map(|m| m.tgs))
                        .fold(f64::NEG_INFINITY, f64::max);
                    let certified = count(&|s| matches!(s, Screen::MustOom { .. }));
                    let at = format!("{spec:?} @ {}: {plans} plans", w.seq_len);
                    if best.is_finite() {
                        // Exactly the configs bounded at or above the pick.
                        let kept = count(&|s| matches!(s, Screen::Bound(b) if *b >= best));
                        assert_eq!(plans, kept, "{at}");
                        pruned += count(&|s| matches!(s, Screen::Bound(b) if *b < best));
                    } else {
                        assert!(plans <= n - certified, "{at}");
                        let oohm = rows
                            .iter()
                            .any(|(_, _, out)| matches!(out, CellOutcome::Oohm { .. }));
                        if certified > 0 && oohm {
                            certified_with_oohm += 1;
                        } else if certified > 0 {
                            certified_oom_only += 1;
                        }
                    }
                }
                let oracle = exhaustive_fold(
                    rows.iter()
                        .map(|(cfg, screen, out)| (*cfg, search_outcome(&w, *screen, out))),
                );
                for use_cache in [true, false] {
                    assert_eq!(
                        w.run_best_or_failure_with(spec, use_cache),
                        oracle,
                        "{spec:?} {} on {} GPUs at {} tokens, cache {use_cache}",
                        w.model.name,
                        w.n_gpus,
                        w.seq_len
                    );
                }
            }
        }
        assert!(
            pruned > 0 && certified_with_oohm > 0 && certified_oom_only > 0,
            "{pruned} / {certified_with_oohm} / {certified_oom_only}"
        );
    }

    /// A failed cell names a real shortfall: `needed > capacity`.
    fn assert_real_shortfall(out: &CellOutcome, at: &dyn Fn() -> String) {
        if let CellOutcome::Oom { needed, capacity } | CellOutcome::Oohm { needed, capacity } = *out
        {
            assert!(needed > capacity, "{}: {out:?}", at());
        }
    }

    #[test]
    fn a_cell_where_nothing_stages_cannot_fail_on_the_host() {
        // 7B cut to two layers: on TP4·CP2 both stay in the two rounding
        // buffers, so nothing stages and no host is too small for it, an
        // empty one included. Every config of every mode runs or falls
        // short for real.
        let model = ModelConfig {
            n_layers: 2,
            ..ModelConfig::gpt_7b()
        };
        let mega = ParallelConfig::megatron(4, 2, 1, 1);
        for host_gib in [0u64, 1, 4] {
            let mut w = Workload::new(model.clone(), 8, 512 << 10);
            w.calib.set_host_memory_bytes(host_gib << 30);
            for spec in SystemSpec::ALL_MODES {
                for (cfg, _, out) in screened_grid(&w, spec) {
                    assert_real_shortfall(&out, &|| {
                        format!("{spec:?} {} at {host_gib} GiB", cfg.describe())
                    });
                }
            }
            let memo = w.run_with(SystemSpec::Memo, &mega);
            assert!(memo.is_ok(), "{host_gib} GiB of host: {memo:?}");
        }
    }

    #[test]
    fn fewer_than_two_buffer_slots_is_no_valid_config() {
        // The buffers rotate in pairs at least (Figure 6), but a spec read
        // from a report may carry 0 or 1 slots: `X_cfg`, run alone or
        // searched, not a panic in the schedule.
        let w = w7(8, 256);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        for slots in [0u8, 1] {
            let spec = SystemSpec::MemoBufferSlots(slots);
            assert_eq!(w.run_with(spec, &cfg), CellOutcome::NoValidStrategy);
            assert_eq!(w.run_best_or_failure(spec).1, CellOutcome::NoValidStrategy);
        }
    }

    #[test]
    fn alpha_counts_only_the_layers_beyond_the_buffers() {
        // 7B on 8 GPUs at 512K on TP4·CP2 (32 local layers) under a binding
        // host: α is the LP optimum for the 32 − slots layers that stage,
        // so each extra buffer leaves the host more per staged layer. The
        // two-buffer cells are the paper's.
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        for (host_gib, cells) in [
            (512u64, [(0.0, "51.24"), (0.125, "51.41"), (0.125, "51.44")]),
            (768, [(0.125, "51.37"), (0.25, "51.53"), (0.25, "51.56")]),
        ] {
            let mut w = w7(8, 512);
            w.calib.set_host_memory_bytes(host_gib << 30);
            let p = ExecutionPipeline::new(SystemSpec::Memo).profile(&w, &cfg, true);
            for (slots, (alpha, mfu)) in [2u8, 3, 4].into_iter().zip(cells) {
                let at = format!("{host_gib} GiB, {slots} slots");
                let lp = memo_swap::alpha::solve_alpha(&p.alpha_inputs(&w.calib, slots.into()));
                assert_eq!(lp.alpha, alpha, "{at}");
                assert_eq!(lp.binding, BindingConstraint::HostMemory, "{at}");
                let out = w.run_with(SystemSpec::MemoBufferSlots(slots), &cfg);
                let m = out.metrics().expect("feasible");
                assert_eq!(m.alpha, Some(alpha), "{at}");
                assert_eq!(format!("{:.2}", m.mfu * 100.0), mfu, "{at}");
            }
        }
    }

    #[test]
    fn certificates_keep_failure_kinds_and_are_real_shortfalls() {
        let (mut all_fail, mut certified) = (0, 0);
        for w in pruning_grids() {
            let capacity = w.calib.usable_gpu_memory();
            for spec in SystemSpec::ALL_MODES {
                let replays = ExecutionPipeline::new(spec).replays_allocator();
                let rows = screened_grid(&w, spec);
                for (cfg, screen, out) in &rows {
                    assert_real_shortfall(out, &|| {
                        format!("{spec:?} {} @ {}", cfg.describe(), w.seq_len)
                    });
                    let Screen::MustOom { needed } = *screen else {
                        continue;
                    };
                    let at = || {
                        format!(
                            "{spec:?} {} @ {}: {needed} vs {out:?}",
                            cfg.describe(),
                            w.seq_len
                        )
                    };
                    assert!(needed > capacity, "{}", at());
                    let CellOutcome::Oom { needed: ran, .. } = *out else {
                        panic!("certified, but {}", at());
                    };
                    // Every valid plan peaks at or above LOAD.
                    assert!(replays || needed <= ran, "{}", at());
                    certified += 1;
                }
                if rows.iter().all(|(_, _, out)| !out.is_ok()) {
                    let (_, searched) = w.run_best_or_failure(spec);
                    let (_, exhaustive) =
                        exhaustive_fold(rows.iter().map(|(cfg, _, out)| (*cfg, out.clone())));
                    assert_eq!(
                        std::mem::discriminant(&searched),
                        std::mem::discriminant(&exhaustive),
                        "{spec:?} @ {}: {searched:?} vs {exhaustive:?}",
                        w.seq_len
                    );
                    all_fail += 1;
                }
            }
        }
        assert!(all_fail > 0 && certified > 0, "{all_fail} / {certified}");

        // A model whose static bytes overflow `u64` certifies at `u64::MAX`.
        let small = Workload::new(ModelConfig::gpt_7b(), 1, 1 << 10);
        let cfg = ParallelConfig::ulysses(1, 1);
        let ds = ExecutionPipeline::new(SystemSpec::DeepSpeed);
        let p = ds.profile(&small, &cfg, false);
        let mut huge = small.clone();
        huge.model = ModelConfig {
            name: "huge",
            n_layers: 1,
            hidden: 1 << 30,
            ffn_hidden: 1 << 30,
            n_heads: 1,
            vocab: 1,
        };
        assert_eq!(
            ds.screen(&huge, &cfg, &p),
            Screen::MustOom { needed: u64::MAX }
        );
    }

    #[test]
    fn cold_searches_build_no_trace_for_a_certified_config() {
        // Each (workload, mode) search runs at its own PCIe rate, so its
        // profiles are keyed apart from every other test's and every other
        // search's here: nothing else builds their traces. A grid small
        // enough to bypass the cache leaves nothing to look up, so those
        // checks pass trivially; the counts below show the rest do not.
        let (mut rate, mut certified, mut built) = (0u32, 0, 0);
        for base in pruning_grids() {
            // 7B on four 2 GiB GPUs at 8K: every config is certified.
            let all_certified = base.calib.gpu_memory_bytes == 2 << 30;
            let gpn = base.calib.gpus_per_node.min(base.n_gpus);
            for spec in SystemSpec::ALL_MODES {
                let mut w = base.clone();
                rate += 1;
                w.calib.set_pcie_bandwidth(12e9 + f64::from(rate) * 1e6);
                let _ = w.run_best_or_failure(spec);
                let pipeline = ExecutionPipeline::new(spec);
                for cfg in search::enumerate_configs(spec, &w.model, w.n_gpus, gpn) {
                    let p = pipeline.profile(&w, &cfg, true);
                    let must_oom = matches!(pipeline.screen(&w, &cfg, &p), Screen::MustOom { .. });
                    let at = format!("{spec:?} {} at {} tokens", cfg.describe(), w.seq_len);
                    assert!(must_oom || !all_certified, "{at}: not certified");
                    assert!(
                        !(must_oom && p.trace.is_built()),
                        "{at}: certified, but built"
                    );
                    certified += u32::from(must_oom);
                    built += u32::from(p.trace.is_built());
                }
            }
        }
        assert!(certified > 0 && built > 0, "{certified} / {built}");
    }

    #[test]
    fn cold_searches_stream_no_peak_below_their_pick() {
        // Each (workload, mode) search runs cold at a PCIe rate of its own
        // (apart from `cold_searches_build_no_trace_for_a_certified_config`'s
        // too), so only it can have read its profiles' peaks. A config
        // bounded strictly below a feasible pick is never visited, so
        // nothing certifies it: its peak stays unread.
        let (mut rate, mut unread) = (0u32, 0);
        for base in pruning_grids() {
            let gpn = base.calib.gpus_per_node.min(base.n_gpus);
            for spec in SystemSpec::ALL_MODES {
                let mut w = base.clone();
                rate += 1;
                w.calib.set_pcie_bandwidth(14e9 + f64::from(rate) * 1e6);
                let pipeline = ExecutionPipeline::new(spec);
                let configs = search::enumerate_configs(spec, &w.model, w.n_gpus, gpn);
                let (pick, out) = w.run_best_or_failure(spec);
                let Some(best) = out.metrics().map(|m| m.tgs) else {
                    continue;
                };
                // A small grid bypasses the cache: nothing to look at.
                if configs.len() <= SMALL_GRID_BYPASS {
                    continue;
                }
                assert!(pick.is_some());
                for cfg in configs {
                    let p = pipeline.profile(&w, &cfg, true);
                    let below = pipeline.bound(&w, &cfg, &p).tgs.is_some_and(|b| b < best);
                    let at = format!("{spec:?} {} at {} tokens", cfg.describe(), w.seq_len);
                    assert!(
                        !(below && p.trace.is_peak_read()),
                        "{at}: pruned, but its peak was read"
                    );
                    unread += u32::from(below);
                }
            }
        }
        assert!(unread > 0, "no config was bounded below its pick");
    }

    #[test]
    fn run_best_returns_feasible_strategy() {
        let w = w7(8, 128);
        let (cfg, out) = w.run_best(SystemSpec::Memo).expect("128K must be feasible");
        assert!(out.is_ok());
        assert_eq!(cfg.world(), 8);
    }

    #[test]
    fn run_best_covers_every_mode() {
        // All six execution modes are searchable end-to-end at a length
        // each can survive, and return a strategy of the right family.
        let w = w7(8, 64);
        for spec in SystemSpec::ALL_MODES {
            let (cfg, out) = w
                .run_best(spec)
                .unwrap_or_else(|| panic!("{spec:?} must be feasible at 64K"));
            assert!(out.is_ok(), "{spec:?}");
            assert_eq!(cfg.world(), 8, "{spec:?}");
            if spec == SystemSpec::DeepSpeed {
                assert!(cfg.ulysses > 1, "DeepSpeed must search the SP grid");
            } else {
                assert_eq!(cfg.ulysses, 1, "{spec:?} searches the Megatron grid");
            }
        }
    }

    #[test]
    fn memo_reaches_1m_on_8_gpus() {
        // The headline: 7B, 1Mi context, 8 GPUs, MFU > 50%.
        let w = w7(8, 1024);
        let (cfg, out) = w
            .run_best(SystemSpec::Memo)
            .expect("MEMO must train 1M tokens on 8 GPUs");
        let m = out.metrics().expect("feasible");
        assert!(
            m.mfu > 0.45,
            "headline MFU {:.2}% below 45% (cfg {})",
            m.mfu * 100.0,
            cfg.describe()
        );
    }

    #[test]
    fn baselines_oom_before_memo() {
        let w = w7(8, 1024);
        let (_, mega) = w.run_best_or_failure(SystemSpec::MegatronLM);
        let (_, ds) = w.run_best_or_failure(SystemSpec::DeepSpeed);
        assert!(!mega.is_ok(), "Megatron should not reach 1M on 8 GPUs");
        assert!(!ds.is_ok(), "DeepSpeed should not reach 1M on 8 GPUs");
    }

    #[test]
    fn observed_run_collects_artifacts() {
        use crate::observer::RunObserver;
        use memo_hal::time::SimTime;
        let w = w7(8, 64);
        // Swap family: the three-stream schedule timeline is captured; the
        // static plan performs no dynamic allocation.
        let mut obs = RunObserver::new();
        let rep = w.run_report_observed(
            SystemSpec::Memo,
            &ParallelConfig::megatron(4, 2, 1, 1),
            &mut obs,
        );
        assert!(rep.outcome.is_ok());
        let tl = obs.timeline.expect("swap family captures the timeline");
        assert!(tl.n_streams() >= 3, "compute/offload/prefetch streams");
        tl.check_causality().expect("captured timeline is causal");
        assert!(obs.alloc_events.is_empty(), "static plan: no replay events");
        assert!(obs.cache_hits + obs.cache_misses > 0, "profile was counted");

        // Recompute family: a synthetic single-stream timeline plus the
        // steady-state allocator event log.
        let mut obs = RunObserver::new();
        let rep = w.run_report_observed(
            SystemSpec::MegatronLM,
            &ParallelConfig::megatron(4, 2, 1, 1),
            &mut obs,
        );
        assert!(rep.outcome.is_ok());
        let tl = obs.timeline.expect("recompute family synthesizes one");
        assert_eq!(tl.n_streams(), 1);
        assert!(tl.makespan() > SimTime::ZERO);
        tl.check_causality().expect("synthetic timeline is causal");
        assert!(
            !obs.alloc_events.is_empty(),
            "caching replay records events"
        );
    }

    #[test]
    fn observed_and_unobserved_reports_agree() {
        // The observer only reads what the stages computed; every mode's
        // report must be bit-identical with and without it.
        use crate::observer::RunObserver;
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        for spec in SystemSpec::ALL_MODES {
            let plain = w.run_report(spec, &cfg);
            let mut obs = RunObserver::new();
            let observed = w.run_report_observed(spec, &cfg, &mut obs);
            assert_eq!(plain.outcome, observed.outcome, "{spec:?}");
            assert_eq!(plain.bytes, observed.bytes, "{spec:?}");
            assert_eq!(plain.time, observed.time, "{spec:?}");
        }
    }

    #[test]
    fn best_or_failure_reports_real_shortfalls() {
        // The failure path must carry actual byte counts, not sentinels —
        // and an empty search space reports NoValidStrategy.
        let w = w7(8, 2048);
        let (cfg, out) = w.run_best_or_failure(SystemSpec::MegatronLM);
        assert!(cfg.is_none());
        match out {
            CellOutcome::Oom { needed, capacity } | CellOutcome::Oohm { needed, capacity } => {
                assert!(needed > 0 && capacity > 0, "sentinel failure: {out:?}");
                assert!(needed > capacity, "failure must show a shortfall");
            }
            other => panic!("expected a memory failure, got {other:?}"),
        }
    }

    #[test]
    fn memo_mfu_flat_across_lengths() {
        // Table 3's signature: MEMO holds ≈50% MFU from 128K to 1024K.
        let cfgs = [
            (128, ParallelConfig::megatron(4, 2, 1, 1)),
            (256, ParallelConfig::megatron(4, 2, 1, 1)),
            (512, ParallelConfig::megatron(4, 2, 1, 1)),
            (1024, ParallelConfig::megatron(8, 1, 1, 1)),
        ];
        for (s, cfg) in cfgs {
            let out = w7(8, s).run_with(SystemSpec::Memo, &cfg);
            let m = out
                .metrics()
                .unwrap_or_else(|| panic!("{s}K infeasible: {out:?}"));
            assert!(
                m.mfu > 0.42 && m.mfu < 0.60,
                "{s}K: MFU {:.3} outside the ~50% band",
                m.mfu
            );
        }
    }

    #[test]
    fn megatron_pays_recompute_tax() {
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let w = w7(8, 256);
        let memo = w.run_with(SystemSpec::Memo, &cfg).mfu().unwrap();
        let mega = w.run_with(SystemSpec::MegatronLM, &cfg).mfu().unwrap();
        let ratio = memo / mega;
        assert!(
            ratio > 1.25,
            "MEMO/Megatron MFU ratio {ratio:.2} too small (memo {memo:.3}, mega {mega:.3})"
        );
    }

    #[test]
    fn memo_oom_frontier_beyond_megatron() {
        // Find the largest multiple of 128K each system survives (7B, 8 GPUs)
        // with its best strategy.
        let frontier = |sys: SystemSpec| -> u64 {
            let mut best = 0;
            for sk in (1..=12).map(|k| 128 * k as u64) {
                let w = w7(8, sk);
                if w.run_best(sys).is_some() {
                    best = sk;
                }
            }
            best
        };
        let memo = frontier(SystemSpec::Memo);
        let mega = frontier(SystemSpec::MegatronLM);
        let ds = frontier(SystemSpec::DeepSpeed);
        assert!(
            memo >= mega + 128 && mega >= ds,
            "frontiers (K tokens): memo {memo}, megatron {mega}, deepspeed {ds}"
        );
        assert!(memo >= 1024, "MEMO must reach 1M (got {memo}K)");
    }

    #[test]
    fn keepall_megatron_fast_but_short() {
        // Without recomputation Megatron is faster per step but OOMs at a
        // fraction of the full-recompute frontier.
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let keep = w7(8, 64).run_with(SystemSpec::MegatronKeepAll, &cfg);
        let full = w7(8, 64).run_with(SystemSpec::MegatronLM, &cfg);
        let (keep, full) = (keep.mfu().unwrap(), full.mfu().unwrap());
        assert!(keep > full, "no recompute tax: {keep} vs {full}");
        // ...but it dies long before full recomputation does.
        assert!(w7(8, 384).run_with(SystemSpec::MegatronLM, &cfg).is_ok());
        assert!(!w7(8, 384)
            .run_with(SystemSpec::MegatronKeepAll, &cfg)
            .is_ok());
    }

    #[test]
    fn deepspeed_limited_by_fp32_loss() {
        // 7B on 8 GPUs: DS dies within a few hundred K (paper: 384K OOM).
        let cfg = ParallelConfig::ulysses(8, 1);
        assert!(w7(8, 256).run_with(SystemSpec::DeepSpeed, &cfg).is_ok());
        let far = w7(8, 768).run_with(SystemSpec::DeepSpeed, &cfg);
        assert!(!far.is_ok(), "DS should OOM well before 768K, got {far:?}");
    }

    #[test]
    fn oohm_when_alpha_override_overflows_host() {
        // Full swapping at extreme lengths exhausts the host share (the
        // Table 4 "Full Swapping" column's X_oohm entries).
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let out = ExecutionPipeline::memo_at_alpha(1.0, 2)
            .execute_cached(&w7(8, 768), &cfg, true)
            .outcome;
        assert!(
            matches!(out, CellOutcome::Oohm { .. }),
            "full swapping at 768K should OOHM, got {out:?}"
        );
    }

    #[test]
    fn nvme_tier_dominates_host_only() {
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let nvme = SystemSpec::MemoTiered(2);
        for s in [512u64, 768, 1024] {
            let w = w7(8, s);
            let base = w.run_with(SystemSpec::Memo, &cfg).mfu().unwrap();
            let tiered = w.run_with(nvme, &cfg).mfu().unwrap();
            assert!(
                tiered >= base - 1e-9,
                "{s}K: nvme {tiered} < host-only {base}"
            );
        }
        // where the host α is capped, NVMe must strictly help
        let w = w7(8, 768);
        let alpha = |spec| w.run_with(spec, &cfg).metrics().unwrap().alpha.unwrap();
        let (base, tiered) = (alpha(SystemSpec::Memo), alpha(nvme));
        assert!(
            tiered > base,
            "two-tier α {tiered} must exceed host-only α {base}"
        );
    }

    #[test]
    fn tiered_chain_reduces_to_legacy_modes() {
        // On the default three-tier testbed chain, the N-tier waterfall
        // truncated to one offload tier is MEMO, and run over the whole
        // chain it is the two-offload-tier MEMO+NVMe — outcome, byte and
        // time breakdowns all identical.
        let mega = ParallelConfig::megatron(4, 2, 1, 1);
        for s in [64u64, 256, 512, 768, 1024] {
            let w = w7(8, s);
            for (depth, legacy) in [(1u8, SystemSpec::Memo), (0, SystemSpec::MemoTiered(2))] {
                let tiered = w.run_report(SystemSpec::MemoTiered(depth), &mega);
                let base = w.run_report(legacy, &mega);
                assert_eq!(
                    tiered.outcome, base.outcome,
                    "{s}K depth {depth} vs {legacy:?}"
                );
                assert_eq!(tiered.bytes, base.bytes, "{s}K depth {depth} bytes");
                assert_eq!(tiered.time, base.time, "{s}K depth {depth} time");
            }
        }
    }

    #[test]
    fn deeper_chain_extends_the_frontier_knob() {
        // Adding a CXL-style tier between host and NVMe must never hurt:
        // the waterfall's α is monotone in chain depth.
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let mut w = w7(8, 768);
        let nvme = w.calib.hierarchy.tiers.pop().unwrap();
        w.calib.hierarchy.push(memo_hal::TierSpec {
            name: "cxl".into(),
            capacity_bytes: 512 << 30,
            usable_fraction: 1.0,
            write_bandwidth: 64e9,
            utilization: 0.85,
            sharing: memo_hal::TierSharing::Fixed(2.0),
            latency_secs: 250e-9,
        });
        w.calib.hierarchy.push(nvme);
        let alpha = |depth| {
            w.run_with(SystemSpec::MemoTiered(depth), &cfg)
                .metrics()
                .unwrap()
                .alpha
                .unwrap()
        };
        let (two, four) = (alpha(2), alpha(0));
        assert!(
            four >= two,
            "4-tier α {four} must not fall below host+CXL α {two}"
        );
    }

    #[test]
    fn memo_scales_to_64_gpus_8m() {
        // Figure 12(c): 7B on 64 GPUs sustains >45% MFU up to 8M tokens.
        let w = Workload::new(ModelConfig::gpt_7b(), 64, 8 * 1024 * 1024);
        let cfg = ParallelConfig::megatron(8, 8, 1, 1);
        let out = w.run_with(SystemSpec::Memo, &cfg);
        let m = out.metrics().expect("8M on 64 GPUs must be feasible");
        assert!(m.mfu > 0.45, "MFU {:.3}", m.mfu);
    }

    #[test]
    fn report_breakdowns_account_for_the_iteration() {
        // The ExecutionReport's byte and time decompositions must agree
        // with the headline metrics for every mode that succeeds.
        let w = w7(8, 256);
        let mega = ParallelConfig::megatron(4, 2, 1, 1);
        let ds = ParallelConfig::ulysses(8, 1);
        for spec in SystemSpec::ALL_MODES {
            let cfg = if spec == SystemSpec::DeepSpeed {
                &ds
            } else {
                &mega
            };
            let report = w.run_report(spec, cfg);
            let Some(m) = report.outcome.metrics() else {
                continue;
            };
            assert_eq!(report.bytes.peak(), m.peak_gpu_bytes, "{spec:?} bytes");
            let total = report.time.total();
            assert!(
                (total - m.iter_secs).abs() < 1e-6 * m.iter_secs.max(1.0),
                "{spec:?}: breakdown {total} vs iter {}",
                m.iter_secs
            );
            assert!(report.time.compute > 0.0, "{spec:?} compute");
            assert!(report.time.optimizer > 0.0, "{spec:?} optimizer");
        }
    }

    fn assert_reports_equal(a: &ExecutionReport, b: &ExecutionReport, what: &str) {
        assert_eq!(a.outcome, b.outcome, "{what}: outcome");
        assert_eq!(a.bytes, b.bytes, "{what}: bytes");
        assert_eq!(a.time, b.time, "{what}: time");
        assert_eq!(a.strategy, b.strategy, "{what}: strategy");
    }

    #[test]
    fn alpha_grid_is_bit_identical_to_cached_runs() {
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
    fn alpha_grid_makes_one_profile_and_at_most_one_plan_lookup() {
        // The scope counts this thread's lookups only, hits and misses
        // alike, so concurrent tests sharing the global cache cannot move
        // it. Per-cell lookups would read 2 per point.
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(8, 1, 1, 1);
        for points in [2, 5, 17] {
            let scope = CacheStatsScope::enter();
            let grid = w.run_alpha_grid(&cfg, points, 2);
            let s = scope.finish();
            assert!(grid.iter().all(|(_, rep)| rep.outcome.is_ok()));
            assert_eq!(
                s.hits + s.misses,
                2,
                "{points} points: one profile, one plan"
            );
        }
        // With no host to stage on, every cell fails in stage 2: the row
        // looks its profile up and never its plan.
        let mut starved = w.clone();
        starved.calib.set_host_memory_bytes(0);
        let scope = CacheStatsScope::enter();
        let grid = starved.run_alpha_grid(&cfg, 17, 2);
        let s = scope.finish();
        assert!(grid
            .iter()
            .all(|(_, rep)| matches!(rep.outcome, CellOutcome::Oohm { .. })));
        assert_eq!(s.hits + s.misses, 1, "a profile and no plan");
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
    fn alpha_grid_reproduces_oohm_failure_cells() {
        // α = 1.0 at a long context overflows the host (the OOHM test
        // above pins this workload); a row must report the identical
        // failure, and keep doing so on a second row over warm caches.
        let w = w7(8, 768);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let full = ExecutionPipeline::memo_at_alpha(1.0, 2).execute_cached(&w, &cfg, true);
        assert!(
            matches!(full.outcome, CellOutcome::Oohm { .. }),
            "expected OOHM, got {:?}",
            full.outcome
        );
        for round in 0..2 {
            let grid = w.run_alpha_grid(&cfg, 2, 2);
            assert_eq!(grid[1].0, 1.0);
            assert_reports_equal(&grid[1].1, &full, &format!("round {round}"));
        }
    }

    #[test]
    fn pick_best_uses_last_wins_tie_break() {
        let w = w7(8, 64);
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let grid = w.run_alpha_grid(&cfg, 5, 2);
        let (pick, outcome) = pick_best_or_failure(&grid, |(_, rep)| &rep.outcome);
        let (best_alpha, best) = pick.expect("some α is feasible");
        assert_eq!(outcome, best.outcome);
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
        assert_eq!(Some(*best_alpha), last_at_max);
    }

    #[test]
    fn one_fold_keeps_the_last_best_and_the_first_least_bad() {
        let ok = |tgs| {
            CellOutcome::Ok(crate::metrics::Metrics {
                iter_secs: 1.0,
                mfu: 0.5,
                tgs,
                peak_gpu_bytes: 0,
                host_peak_bytes: 0,
                reorgs: 0,
                alpha: None,
                strategy: String::new(),
            })
        };
        let oom = |needed, capacity| CellOutcome::Oom { needed, capacity };
        let oohm = |needed, capacity| CellOutcome::Oohm { needed, capacity };
        // Any OOHM ranks below any OOM, a smaller shortfall below a larger
        // one, and of the two 2-byte OOHM shortfalls the first wins.
        let cells = [
            (0, oom(11, 10)),
            (1, oohm(30, 10)),
            (2, oohm(12, 10)),
            (3, oohm(22, 20)),
        ];
        let (pick, failure) = pick_best_or_failure(&cells, |(_, out)| out);
        assert!(pick.is_none());
        assert_eq!(failure, oohm(12, 10));
        let (_, failure) = pick_best_or_failure(cells.iter().rev(), |(_, out)| out);
        assert_eq!(failure, oohm(22, 20));
        // A success beats every failure; of equal TGS the last cell wins.
        let cells = [
            (0, ok(2.0)),
            (1, oom(11, 10)),
            (2, ok(3.0)),
            (3, ok(3.0)),
            (4, ok(1.0)),
        ];
        let (pick, outcome) = pick_best_or_failure(&cells, |(_, out)| out);
        assert_eq!(pick.map(|(i, _)| *i), Some(3));
        assert_eq!(outcome, ok(3.0));
        let empty: [(u8, CellOutcome); 0] = [];
        assert_eq!(
            pick_best_or_failure(&empty, |(_, out)| out),
            (None, CellOutcome::NoValidStrategy)
        );
    }
}
