//! The user-facing API: describe a workload, pick a system, run.

use crate::ablation::Variant;
use crate::outcome::CellOutcome;
use crate::pipeline::{ExecutionPipeline, ExecutionReport, ProfileSource};
use memo_hal::calib::Calibration;
use memo_hal::topology::ClusterSpec;
use memo_model::config::ModelConfig;
use memo_parallel::pool::Pool;
use memo_parallel::search;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};

/// Knobs of the strategy search. Both default on; the forced-serial,
/// cache-disabled combination is the oracle of the parallel-parity tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Fan the per-config evaluations out over the work-stealing
    /// [`Pool`]. The reduction stays serial in enumeration order, so the
    /// picked (cfg, outcome) is bit-identical to a serial run.
    pub parallel: bool,
    /// Share profiles through the global [`crate::cache::ProfileCache`].
    pub cache: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            parallel: true,
            cache: true,
        }
    }
}

/// Strategy grids at or below this size skip both the worker pool and the
/// profile cache: the per-config fixed costs (task hand-off, `ProfileKey`
/// construction + hashing) exceed any reuse such a grid can generate, and
/// a small grid's keys are rarely shared with other searches (DeepSpeed's
/// Ulysses grid pairs `FullRecompute` with materialized logits — no other
/// backend asks for that profile).
pub const SMALL_GRID_BYPASS: usize = 8;

impl SearchOptions {
    /// Serial, uncached: exactly the pre-pool code path.
    pub fn serial_uncached() -> Self {
        SearchOptions {
            parallel: false,
            cache: false,
        }
    }
}

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

    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::with_gpus(self.n_gpus, self.calib.clone())
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
        ExecutionPipeline::new(system).execute_from(
            self,
            cfg,
            ProfileSource::Cache { use_cache: true },
            Some(obs),
        )
    }

    /// Run an ablation variant (Table 4) with an explicit configuration.
    pub fn run_variant(&self, variant: Variant, cfg: &ParallelConfig) -> CellOutcome {
        crate::ablation::run_variant(self, variant, cfg)
    }

    /// Search all valid strategies for `system` (the paper's "manually
    /// adjust ... for optimal performance", automated) and return the best
    /// outcome by TGS, with its configuration. `None` when every strategy
    /// fails (the whole table cell is X_oom / X_oohm).
    pub fn run_best(&self, system: SystemSpec) -> Option<(ParallelConfig, CellOutcome)> {
        self.run_best_with(system, SearchOptions::default())
    }

    /// [`Self::run_best`] with explicit [`SearchOptions`].
    pub fn run_best_with(
        &self,
        system: SystemSpec,
        opts: SearchOptions,
    ) -> Option<(ParallelConfig, CellOutcome)> {
        self.search_strategies(system, opts).0
    }

    /// Like [`Self::run_best`] but also reporting the dominant failure when
    /// no strategy works (for the X_oom vs X_oohm distinction in Table 3).
    pub fn run_best_or_failure(&self, system: SystemSpec) -> (Option<ParallelConfig>, CellOutcome) {
        self.run_best_or_failure_with(system, SearchOptions::default())
    }

    /// [`Self::run_best_or_failure`] with explicit [`SearchOptions`].
    pub fn run_best_or_failure_with(
        &self,
        system: SystemSpec,
        opts: SearchOptions,
    ) -> (Option<ParallelConfig>, CellOutcome) {
        match self.search_strategies(system, opts) {
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
    /// The per-config evaluations are independent and fan out over the
    /// work-stealing pool; the *reduction* stays a serial fold in
    /// enumeration-index order, so the `>=` tie-break below keeps its
    /// "last enumerated wins" semantics bit-exactly regardless of which
    /// worker finished first (golden parity depends on this — DESIGN.md).
    fn search_strategies(
        &self,
        system: SystemSpec,
        opts: SearchOptions,
    ) -> (Option<(ParallelConfig, CellOutcome)>, CellOutcome) {
        let gpn = self.calib.gpus_per_node.min(self.n_gpus);
        let configs = search::enumerate_configs(system, &self.model, self.n_gpus, gpn);
        // Tiny grids (DeepSpeed's Ulysses axis is 4 configs at 8 GPUs) lose
        // more to pool dispatch and cache fingerprinting than either can
        // return — the whole grid evaluates faster than one ProfileKey
        // hash. Bypass both; the outcome is identical either way (the
        // cache is a pure memo and the reduction is order-fixed).
        let small = configs.len() <= SMALL_GRID_BYPASS;
        let parallel = opts.parallel && !small;
        let use_cache = opts.cache && !small;
        let pipeline = ExecutionPipeline::new(system);
        let evaluate = |cfg: &ParallelConfig| pipeline.execute_cached(self, cfg, use_cache).outcome;
        let outcomes: Vec<(ParallelConfig, CellOutcome)> = if parallel {
            Pool::machine().map(configs, |cfg| (cfg, evaluate(&cfg)))
        } else {
            configs
                .into_iter()
                .map(|cfg| (cfg, evaluate(&cfg)))
                .collect()
        };

        let mut best: Option<(ParallelConfig, CellOutcome, f64)> = None;
        let mut failure: Option<CellOutcome> = None;
        for (cfg, out) in outcomes {
            match out.metrics().map(|m| m.tgs) {
                Some(tgs) => {
                    // `>=` matches `Iterator::max_by` (ties keep the last
                    // enumerated config), preserving pre-refactor picks.
                    if best.as_ref().is_none_or(|(_, _, b)| tgs >= *b) {
                        best = Some((cfg, out, tgs));
                    }
                }
                None => {
                    if out.failure_rank()
                        < failure
                            .as_ref()
                            .map_or(u128::MAX, CellOutcome::failure_rank)
                    {
                        failure = Some(out);
                    }
                }
            }
        }
        (
            best.map(|(cfg, out, _)| (cfg, out)),
            failure.unwrap_or(CellOutcome::NoValidStrategy),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheStats, CacheStatsScope};
    use crate::testutil::w7;

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
    fn small_grids_bypass_pool_and_cache_without_changing_the_pick() {
        // DeepSpeed's Ulysses axis at 8 GPUs enumerates 4 configs — under
        // SMALL_GRID_BYPASS — so a default-options search must not touch
        // the profile cache at all, and still pick exactly what the
        // serial-uncached oracle picks.
        let w = w7(8, 64);
        let gpn = w.calib.gpus_per_node.min(w.n_gpus);
        let grid = search::enumerate_configs(SystemSpec::DeepSpeed, &w.model, w.n_gpus, gpn);
        assert!(
            !grid.is_empty() && grid.len() <= SMALL_GRID_BYPASS,
            "Ulysses grid ({}) should sit under the bypass threshold",
            grid.len()
        );
        // The scopes count this thread's lookups only, so concurrent tests
        // sharing the global cache cannot move them. A bypassed grid runs
        // on this thread, so an empty scope means no lookup at all.
        let oracle =
            w.run_best_or_failure_with(SystemSpec::DeepSpeed, SearchOptions::serial_uncached());
        let scope = CacheStatsScope::enter();
        let picked = w.run_best_or_failure(SystemSpec::DeepSpeed);
        assert_eq!(
            scope.finish(),
            CacheStats::default(),
            "bypass must skip the cache"
        );
        assert_eq!(picked, oracle);

        // A Megatron-family grid is over the threshold and still uses it
        // (searched serially, so every lookup lands in this thread's scope).
        let big = search::enumerate_configs(SystemSpec::Memo, &w.model, w.n_gpus, gpn);
        assert!(big.len() > SMALL_GRID_BYPASS);
        let scope = CacheStatsScope::enter();
        let _ = w.run_best_with(
            SystemSpec::Memo,
            SearchOptions {
                parallel: false,
                cache: true,
            },
        );
        let s = scope.finish();
        assert!(s.hits + s.misses > 0, "large grids still use the cache");
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
            read_bandwidth: 64e9,
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
}
