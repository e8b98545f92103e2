//! The staged execution pipeline — Figure 10 made explicit.
//!
//! Every execution mode ([`SystemSpec`]) runs the same five stages:
//!
//! 1. **profile** — liveness peak, memory-request trace (built on first
//!    use), per-layer costs and skeletal bytes, the α program's inputs
//!    ([`crate::profiler`]);
//! 2. **activation policy** (`ActivationPolicy`) — how activations survive
//!    to the backward pass: swap into rounding buffers under an α rule (the
//!    α program over one or more offload tiers, a fixed α, or whole
//!    tensors), full recomputation, or keep-all. The swap policy can fail
//!    host/NVMe feasibility (`X_oohm`);
//! 3. **memory backend** ([`MemoryBackend`]) — where tensors live: the
//!    bi-level static plan or a PyTorch-style caching-allocator replay.
//!    Both report a peak, reorganisation count, and a uniform `X_oom`;
//! 4. **schedule** — the three-stream swap schedule for swap policies
//!    (residual `X_oohm`), the closed-form recompute timing otherwise;
//! 5. **metrics** — MFU/TGS plus the [`ByteBreakdown`]/[`TimeBreakdown`]
//!    accounting of the [`ExecutionReport`].
//!
//! One private stage runner serves every caller. `ExecutionPipeline::execute_from`
//! looks the profile and the static plan up in the process-global
//! [`ProfileCache`]; the strategy search runs stages 2–5 on a profile it
//! already holds; and a grid row (`Workload::run_alpha_grid`,
//! `Workload::run_mixed_policy_grid`) holds one profile and one plan for
//! every cell of its strategy.

use crate::cache::{CacheStatsScope, ProfileCache, ProfileKey};
use crate::metrics::{compute_metrics, Metrics};
use crate::observer::RunObserver;
use crate::outcome::CellOutcome;
use crate::profiler::ProfileReport;
use crate::session::Workload;
use memo_alloc::caching::CachingAllocator;
use memo_alloc::snapshot::replay_training;
use memo_alloc::AllocError;
use memo_hal::calib::CalibFingerprint;
use memo_hal::engine::Timeline;
use memo_hal::time::SimTime;
use memo_model::trace::RematPolicy;
use memo_parallel::comm;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_plan::bilevel::BilevelReport;
use memo_plan::dispatch::PlannerKind;
use memo_swap::alpha::{solve_alpha_tiered, AlphaInputs, TierLink};
use memo_swap::schedule::{
    LayerCosts, LayerSegment, SegmentPolicy, TierTraffic, TierTrafficList, MAX_TIERS,
};
use memo_swap::tiers::TierStaging;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Stage 2: how activations survive from forward to backward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ActivationPolicy {
    /// Swap (§4.1): of the `layers_local − slots` staged layers, the first
    /// `swap_layers` offload the mandatory input/attention rows plus the
    /// share of the other skeletal bytes that `alpha` picks, and recompute
    /// the rest; the last `slots` layers stay in their rotating rounding
    /// buffers, and any staged layer beyond `swap_layers` fully recomputes
    /// (the dense-grid mixed layout). `swap_layers = usize::MAX` is the
    /// paper's uniform layout.
    Swap {
        alpha: AlphaRule,
        swap_layers: usize,
        slots: usize,
    },
    /// Re-forward every transformer layer during backward (Megatron-LM
    /// full recomputation, also DeepSpeed's configuration).
    FullRecompute,
    /// Keep every activation resident (no recompute, no swap).
    KeepAll,
}

/// How the swap policy picks what a staged layer offloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AlphaRule {
    /// The α program over the first `depth` offload tiers of the
    /// calibration's [`memo_hal::MemoryHierarchy`] (0 = the whole chain):
    /// `depth = 1` is the paper's host-only LP, deeper chains run the
    /// N-tier waterfall, each tier absorbing what nearer tiers cannot.
    Lp { depth: u8 },
    /// A fixed α on the host tier (the full-swap ablation, α grids).
    Fixed(f64),
    /// Capuchin-style granularity: whole tensors, largest first, under the
    /// overlap and host budgets.
    WholeTensors,
}

/// The paper's host-only α program.
const HOST_LP: AlphaRule = AlphaRule::Lp { depth: 1 };

/// The paper's two rounding buffers (§4.1, Figure 6).
const PAPER_SLOTS: usize = 2;

/// Stage 3: where tensors live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryBackend {
    /// Transient tensors at addresses fixed by the bi-level plan; peak is
    /// the planned arena and reorganisations are zero by construction.
    StaticPlan,
    /// PyTorch-style caching allocator replay: warm-up iteration, lazy
    /// optimizer-state allocation, then a steady-state iteration whose
    /// fragmentation peak and reorganisation count are what training pays.
    /// `zero3_prefetch` pins two ZeRO-3 gather buffers beside the
    /// parameters (DeepSpeed).
    CachingReplay { zero3_prefetch: bool },
}

/// A [`SystemSpec`] resolved into concrete stage choices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineStages {
    /// Rematerialisation policy the profiler traces under.
    pub remat: RematPolicy,
    /// Model an unfused fp32 loss (full logits materialised).
    pub materialize_logits: bool,
    /// Multiplier on the profiled head seconds (3.0 for the unfused
    /// softmax/log/NLL passes of the DeepSpeed loss).
    head_scale: f64,
    /// Stage 2 choice.
    pub(crate) policy: ActivationPolicy,
    /// Stage 3 choice.
    pub backend: MemoryBackend,
    /// Divisor on the closed-form iteration time (DeepSpeed's kernel and
    /// all-to-all inefficiency, calibrated).
    derate: bool,
    /// Which planner builds the [`MemoryBackend::StaticPlan`] layout: the
    /// bi-level decomposition or the flat whole-trace dispatch (exact /
    /// boxing / best-fit). Participates in the plan-cache fingerprint.
    pub planner: PlannerKind,
}

impl PipelineStages {
    /// The stage choices for a named execution mode.
    pub fn for_spec(spec: SystemSpec) -> PipelineStages {
        let swap = |alpha, swap_layers, slots| PipelineStages {
            remat: RematPolicy::MemoTokenWise,
            materialize_logits: false,
            head_scale: 1.0,
            policy: ActivationPolicy::Swap {
                alpha,
                swap_layers,
                slots,
            },
            backend: MemoryBackend::StaticPlan,
            derate: false,
            planner: PlannerKind::Bilevel,
        };
        let uniform = |alpha| swap(alpha, usize::MAX, PAPER_SLOTS);
        match spec {
            SystemSpec::Memo => uniform(HOST_LP),
            SystemSpec::MemoWholePlan => PipelineStages {
                planner: PlannerKind::WholeTrace,
                ..uniform(HOST_LP)
            },
            SystemSpec::FullSwapPlan => uniform(AlphaRule::Fixed(1.0)),
            SystemSpec::MemoBufferSlots(n) => swap(HOST_LP, usize::MAX, n as usize),
            SystemSpec::TensorHybrid => uniform(AlphaRule::WholeTensors),
            SystemSpec::MemoTiered(depth) => uniform(AlphaRule::Lp { depth }),
            SystemSpec::MemoMixed(k) => swap(HOST_LP, k as usize, PAPER_SLOTS),
            SystemSpec::MegatronLM => PipelineStages {
                remat: RematPolicy::FullRecompute,
                materialize_logits: false,
                head_scale: 1.0,
                policy: ActivationPolicy::FullRecompute,
                backend: MemoryBackend::CachingReplay {
                    zero3_prefetch: false,
                },
                derate: false,
                planner: PlannerKind::Bilevel,
            },
            SystemSpec::MegatronKeepAll => PipelineStages {
                remat: RematPolicy::KeepAll,
                materialize_logits: false,
                head_scale: 1.0,
                policy: ActivationPolicy::KeepAll,
                backend: MemoryBackend::CachingReplay {
                    zero3_prefetch: false,
                },
                derate: false,
                planner: PlannerKind::Bilevel,
            },
            SystemSpec::DeepSpeed => PipelineStages {
                remat: RematPolicy::FullRecompute,
                materialize_logits: true,
                head_scale: 3.0,
                policy: ActivationPolicy::FullRecompute,
                backend: MemoryBackend::CachingReplay {
                    zero3_prefetch: true,
                },
                derate: true,
                planner: PlannerKind::Bilevel,
            },
            SystemSpec::FullRecomputePlan => PipelineStages {
                remat: RematPolicy::FullRecompute,
                materialize_logits: false,
                head_scale: 1.0,
                policy: ActivationPolicy::FullRecompute,
                backend: MemoryBackend::StaticPlan,
                derate: false,
                planner: PlannerKind::Bilevel,
            },
            // Serving specs execute through `crate::serving`, not the
            // five training stages; a serving spec that reaches the
            // training pipeline anyway behaves as keep-all replay (the
            // decode phase never recomputes activations).
            SystemSpec::Serving(_) => PipelineStages {
                remat: RematPolicy::KeepAll,
                materialize_logits: false,
                head_scale: 1.0,
                policy: ActivationPolicy::KeepAll,
                backend: MemoryBackend::CachingReplay {
                    zero3_prefetch: false,
                },
                derate: false,
                planner: PlannerKind::Bilevel,
            },
        }
    }
}

/// GPU byte accounting of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteBreakdown {
    /// Parameters, gradients, optimizer states (plus any pinned gather
    /// buffers) resident for the whole iteration.
    pub model_states: u64,
    /// Rounding-buffer (skeletal) bytes held by swap modes; zero for the
    /// recompute family.
    pub skeletal_buffers: u64,
    /// Transient-tensor arena: the planned peak under [`MemoryBackend::StaticPlan`],
    /// the caching allocator's reserved peak under replay.
    pub planned_arena: u64,
}

impl ByteBreakdown {
    /// Peak GPU bytes: everything resident at once. Saturates at
    /// `u64::MAX`, which no device holds, so an overflowing sum is a typed
    /// `X_oom` rather than a wrapped total that fits.
    pub(crate) fn peak(&self) -> u64 {
        self.model_states
            .saturating_add(self.skeletal_buffers)
            .saturating_add(self.planned_arena)
    }
}

/// Where one iteration's seconds went. Components sum to the iteration time
/// up to floating-point rounding (the metrics' `iter_secs` is computed from
/// the schedule directly, not by summing this decomposition).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Useful forward + backward + head compute.
    pub compute: f64,
    /// Rematerialisation work (re-forward or token-wise recompute).
    pub recompute: f64,
    /// Compute-stream idle waiting on transfers, plus reorganisation
    /// penalties under the caching allocator.
    pub stall: f64,
    /// Pipeline-bubble overhead on top of the per-stage work.
    pub bubble: f64,
    /// Optimizer step.
    pub optimizer: f64,
    /// Exposed gradient synchronisation.
    pub grad_sync: f64,
}

impl TimeBreakdown {
    /// Sum of the components (equals the iteration seconds up to rounding).
    #[cfg(test)]
    pub(crate) fn total(&self) -> f64 {
        self.compute + self.recompute + self.stall + self.bubble + self.optimizer + self.grad_sync
    }
}

/// Structured result of one pipeline run: the table-cell outcome plus the
/// byte and time accounting behind it. Failed runs keep whatever accounting
/// was established before the failing stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The mode that ran.
    pub spec: SystemSpec,
    /// The strategy it ran under.
    pub strategy: ParallelConfig,
    /// GPU byte accounting (model states / skeletal buffers / arena).
    pub bytes: ByteBreakdown,
    /// Time decomposition; its components sum to the metrics' `iter_secs`
    /// on success.
    pub time: TimeBreakdown,
    /// The Table 3/4 cell: metrics, `X_oom`, or `X_oohm`.
    pub outcome: CellOutcome,
}

/// Where stage 3 gets the static plan.
enum PlanSource<'a> {
    /// The global [`ProfileCache`], under the profile's `key`; with no key
    /// the plan is recomputed unconditionally.
    Lookup { key: Option<&'a ProfileKey> },
    /// A grid row's plan, looked up under the row's profile `key` by the
    /// first cell that reaches stage 3 and held for the rest of the row.
    /// Row cells also build their swap schedules through the global
    /// [`memo_swap::SegmentCache`]. The cells share one strategy, remat
    /// policy and planner, so the held plan is the one every cell would
    /// look up.
    Row {
        key: &'a ProfileKey,
        plan: &'a mut Option<Arc<BilevelReport>>,
    },
}

/// What the strategy search knows about one config before stage 3 and
/// before its liveness peak ([`ExecutionPipeline::bound`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bound {
    /// `Some`: the config may succeed, with a TGS of at most this (exact
    /// for a static plan, the zero-stall bound for a caching replay).
    /// `None`: it cannot succeed, because stage 2 or 4 failed or the
    /// timing is degenerate; its failure may still depend on stage 3.
    pub(crate) tgs: Option<f64>,
    /// What a liveness certificate of `X_oom` adds the peak to.
    pub(crate) floor: Floor,
}

/// The bytes a run of one config holds beside its transient tensors: the
/// part of a liveness certificate ([`Floor::certificate`]) that needs no
/// liveness peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Floor {
    /// Stage 2 fails before stage 3: no certificate applies.
    Uncertifiable,
    /// The caching replay refuses its static bytes, whatever the peak:
    /// `X_oom` with this `needed`.
    Refused(u64),
    /// Stage 3 needs these bytes plus the trace's liveness peak; `X_oom`
    /// when the sum exceeds the usable bytes. Above them on its own, the
    /// run is `X_oom` whatever the peak, and these bytes are a lower bound
    /// on its `needed`.
    PlusPeak(u128),
}

impl Floor {
    /// The `needed` bytes that prove a run on profile `p` ends `X_oom`
    /// on `usable` bytes, from liveness alone; `None` when it may fit.
    /// Streams `p`'s peak unless it has been read.
    pub(crate) fn certificate(self, p: &ProfileReport, usable: u64) -> Option<u64> {
        match self {
            Floor::Uncertifiable => None,
            Floor::Refused(needed) => Some(needed),
            Floor::PlusPeak(bytes) => oom_certificate(plus_peak(bytes, p), usable),
        }
    }
}

/// `bytes` plus `p`'s liveness peak: a [`Floor::PlusPeak`] certificate's
/// `needed`, before saturation.
pub(crate) fn plus_peak(bytes: u128, p: &ProfileReport) -> u128 {
    bytes + u128::from(p.trace.live_peak())
}

/// What the strategy search knows about one config before stage 3:
/// [`ExecutionPipeline::bound`] and the certificate it allows, composed.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Screen {
    /// The config may succeed, with a TGS of at most this.
    Bound(f64),
    /// The config cannot succeed; its failure may still depend on stage 3.
    CannotSucceed,
    /// The config is certain to end `X_oom`, from liveness alone; the
    /// search reports `Oom { needed, capacity: usable }` without stage 3.
    MustOom { needed: u64 },
}

/// The staged executor: resolve a [`SystemSpec`] into [`PipelineStages`]
/// and run profile → policy → memory → schedule → metrics.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionPipeline {
    spec: SystemSpec,
    stages: PipelineStages,
}

impl ExecutionPipeline {
    pub fn new(spec: SystemSpec) -> Self {
        ExecutionPipeline {
            spec,
            stages: PipelineStages::for_spec(spec),
        }
    }

    /// MEMO's token-wise policy at a fixed α with `slots` rounding buffers
    /// (`alpha = 1.0` is the full-swapping ablation) — the α overrides and
    /// dense α grids that no named spec covers.
    pub fn memo_at_alpha(alpha: f64, slots: usize) -> Self {
        let mut stages = PipelineStages::for_spec(SystemSpec::Memo);
        stages.policy = ActivationPolicy::Swap {
            alpha: AlphaRule::Fixed(alpha),
            swap_layers: usize::MAX,
            slots,
        };
        ExecutionPipeline {
            spec: SystemSpec::Memo,
            stages,
        }
    }

    /// The per-layer mixed policy with the exact swap-layer count `k`
    /// (`SystemSpec::MemoMixed` carries it clamped to `u8` and fixes the
    /// α and slot knobs).
    pub fn memo_mixed(k: usize, alpha_override: Option<f64>, slots: usize) -> Self {
        // The spec tag is reporting-only; the policy carries the exact count.
        let spec = SystemSpec::MemoMixed(k.min(u8::MAX as usize) as u8);
        let mut stages = PipelineStages::for_spec(spec);
        stages.policy = ActivationPolicy::Swap {
            alpha: alpha_override.map_or(HOST_LP, AlphaRule::Fixed),
            swap_layers: k,
            slots,
        };
        ExecutionPipeline { spec, stages }
    }

    /// Run the full pipeline for one workload + strategy, with explicit
    /// control over the [`ProfileCache`]: `use_cache = false` recomputes
    /// the profile unconditionally (the serial oracle of
    /// `tests/search_parallel.rs`). Cached and uncached runs are bit-identical — the
    /// cache key covers every profiler input, and stage-specific
    /// post-processing (`head_scale`) happens outside the shared report.
    pub fn execute_cached(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        use_cache: bool,
    ) -> ExecutionReport {
        self.execute_from(w, cfg, use_cache, None)
    }

    /// [`Self::execute_cached`] with an optional [`RunObserver`] threaded
    /// through every stage. With `obs = None` the pipeline takes the exact
    /// unobserved path — no clock reads, no stats scopes, no allocator
    /// event recording, no timeline capture — so observation can never
    /// perturb golden-parity outputs (the observer only *reads* what the
    /// stages already computed, and the one genuinely new artifact, the
    /// recompute-family timeline, is synthesized outside the metric path).
    pub(crate) fn execute_from(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        use_cache: bool,
        mut obs: Option<&mut RunObserver>,
    ) -> ExecutionReport {
        debug_assert!(cfg
            .validate(&w.model, w.n_gpus, w.calib.gpus_per_node.min(w.n_gpus))
            .is_ok());

        // ---- stage 1: profile ---------------------------------------------
        // Thread-local scope, not a global snapshot-diff: concurrent
        // requests on other workers must not leak into this run's counts.
        let cache_scope = obs.as_ref().map(|_| CacheStatsScope::enter());
        let t0 = obs.as_ref().map(|_| Instant::now());
        let key = use_cache.then(|| self.profile_key(w, cfg, w.calib.fingerprint()));
        let p = self.keyed_profile(w, cfg, key.as_ref());
        if let Some(o) = obs.as_deref_mut() {
            o.stage_secs.profile = t0.unwrap().elapsed().as_secs_f64();
        }
        let source = PlanSource::Lookup { key: key.as_ref() };
        let report = self.run_stages(w, cfg, &p, source, obs.as_deref_mut());
        finish_cache_delta(obs, cache_scope);
        report
    }

    /// Whether stage 3 replays the caching allocator
    /// ([`MemoryBackend::CachingReplay`]).
    pub(crate) fn replays_allocator(&self) -> bool {
        matches!(self.stages.backend, MemoryBackend::CachingReplay { .. })
    }

    /// Stage 1 alone, through the global [`ProfileCache`] only when
    /// `use_cache`.
    #[cfg(test)]
    pub(crate) fn profile(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        use_cache: bool,
    ) -> Arc<ProfileReport> {
        let key = use_cache.then(|| self.profile_key(w, cfg, w.calib.fingerprint()));
        self.keyed_profile(w, cfg, key.as_ref())
    }

    /// The [`ProfileCache`] key of `cfg`'s profile under this mode, on the
    /// workload's calibration as fingerprinted by the caller: a search or
    /// a row fingerprints it once for all its keys.
    pub(crate) fn profile_key(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        calib: CalibFingerprint,
    ) -> ProfileKey {
        let st = &self.stages;
        ProfileKey::new(w, cfg, st.remat, st.materialize_logits, calib)
    }

    /// Stage 1 alone: the profile cached under `key`, or computed afresh
    /// with no lookup when there is no key.
    pub(crate) fn keyed_profile(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        key: Option<&ProfileKey>,
    ) -> Arc<ProfileReport> {
        let (remat, logits) = (self.stages.remat, self.stages.materialize_logits);
        let compute = || crate::profiler::profile(w, cfg, remat, logits);
        match key {
            Some(key) => ProfileCache::global().profile_keyed(key.clone(), compute),
            None => Arc::new(compute()),
        }
    }

    /// A grid row's cached profile and the key it was looked up under,
    /// which [`Self::execute_row`] reuses for the row's plan lookup.
    pub(crate) fn row_profile(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
    ) -> (Arc<ProfileReport>, ProfileKey) {
        let key = self.profile_key(w, cfg, w.calib.fingerprint());
        (self.keyed_profile(w, cfg, Some(&key)), key)
    }

    /// What the strategy search learns about `cfg` on profile `p` without
    /// running stage 3 (no plan, no allocator replay) and without reading
    /// the liveness peak: a TGS bound, and the [`Floor`] of its liveness
    /// certificate.
    ///
    /// A static plan runs stages 2 and 4 and reports the **exact** TGS:
    /// the Swap arm of stage 4 never reads the memory accounting, the
    /// Recompute arm reads only its reorganisations (0 under a static
    /// plan), and stage 5 reads the plan only for `peak_gpu_bytes`. So the
    /// plan decides only *whether* the config succeeds. Every valid plan
    /// peaks at or above the trace's liveness peak, so `needed = model
    /// states + skeletal buffers + peak_live_bytes > usable` (in `u128`)
    /// proves stage 3's `X_oom`, which precedes any stage 4 failure: the
    /// floor is the model states plus the skeletal buffers.
    ///
    /// A caching replay is bounded by [`Self::replay_tgs_bound`]; its floor
    /// is [`replay_floor`]'s.
    pub(crate) fn bound(&self, w: &Workload, cfg: &ParallelConfig, p: &ProfileReport) -> Bound {
        if let MemoryBackend::CachingReplay { zero3_prefetch } = self.stages.backend {
            return Bound {
                tgs: Some(self.replay_tgs_bound(w, cfg, p)),
                floor: replay_floor(w, cfg, zero3_prefetch),
            };
        }
        let Ok(plan) = decide_activation(&self.stages.policy, w, p) else {
            return Bound {
                tgs: None,
                floor: Floor::Uncertifiable,
            };
        };
        let floor = Floor::PlusPeak(
            u128::from(p.model_states.total()) + u128::from(skeletal_bytes(p, &plan)),
        );
        let mem = MemoryAccounting {
            bytes: ByteBreakdown::default(),
            reorgs: 0,
        };
        let head_secs = self.head_secs(p);
        let derate = self.stages.derate;
        let tgs = build_schedule(w, cfg, p, head_secs, &plan, &mem, derate, false, None)
            .ok()
            .and_then(|(iter_secs, _, _)| mfu_tgs(w, cfg, iter_secs))
            .map(|(_, tgs)| tgs);
        Bound { tgs, floor }
    }

    /// [`Self::bound`] and its certificate, composed: certified `X_oom`
    /// first, else the bound.
    #[cfg(test)]
    pub(crate) fn screen(&self, w: &Workload, cfg: &ParallelConfig, p: &ProfileReport) -> Screen {
        let Bound { tgs, floor } = self.bound(w, cfg, p);
        match floor.certificate(p, w.calib.usable_gpu_memory()) {
            Some(needed) => Screen::MustOom { needed },
            None => tgs.map_or(Screen::CannotSucceed, Screen::Bound),
        }
    }

    /// An upper bound on the TGS a caching-replay run of `cfg` on profile
    /// `p` can report: the closed-form recompute time with no
    /// reorganisation stalls, i.e. without replaying the allocator. Replay
    /// only adds `stalls ≥ 0` to the same sum before the positive derate,
    /// and TGS falls as the iteration time grows, so a successful run's TGS
    /// never exceeds this (IEEE rounding is monotone). `+∞` — no bound —
    /// when the policy fails or the zero-stall time is degenerate.
    pub(crate) fn replay_tgs_bound(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        p: &ProfileReport,
    ) -> f64 {
        let Ok(ActivationPlan::Recompute { refwd }) = decide_activation(&self.stages.policy, w, p)
        else {
            return f64::INFINITY;
        };
        let t = recompute_timing(w, cfg, p, self.head_secs(p), refwd, self.stages.derate, 0.0);
        mfu_tgs(w, cfg, t.iter_secs).map_or(f64::INFINITY, |(_, tgs)| tgs)
    }

    /// Stages 2–5 on a profile the caller already holds: bit-identical to
    /// [`Self::execute_cached`]'s outcome, with no second profile lookup. A
    /// static plan still comes from the [`ProfileCache`] under the
    /// profile's `key` (recomputed when there is none), so modes that share
    /// a trace share its plan.
    pub(crate) fn execute_profiled(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        p: &ProfileReport,
        key: Option<&ProfileKey>,
    ) -> CellOutcome {
        let source = PlanSource::Lookup { key };
        self.run_stages(w, cfg, p, source, None).outcome
    }

    /// One cell of a grid row: stages 2–5 on the row's profile `p`, with
    /// the static plan held in `plan` (looked up through the cache under
    /// `key` on the first cell that reaches stage 3). Bit-identical to
    /// [`Self::execute_cached`]: the cache returns the same plan to every
    /// cell of the row, and the segment cache keys on every input of the
    /// schedule recurrence.
    pub(crate) fn execute_row(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        p: &ProfileReport,
        key: &ProfileKey,
        plan: &mut Option<Arc<BilevelReport>>,
    ) -> ExecutionReport {
        self.run_stages(w, cfg, p, PlanSource::Row { key, plan }, None)
    }

    /// The profiled head seconds under this mode's `head_scale`. `x * 1.0`
    /// is bit-exact for finite x, so the unconditional multiply reproduces
    /// the old in-place `if head_scale != 1.0` mutation.
    fn head_secs(&self, p: &ProfileReport) -> f64 {
        p.head_secs * self.stages.head_scale
    }

    /// Stages 2–5 on the profile `p`; `source` supplies the static plan.
    fn run_stages(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        p: &ProfileReport,
        mut source: PlanSource<'_>,
        mut obs: Option<&mut RunObserver>,
    ) -> ExecutionReport {
        let fail = |outcome| ExecutionReport {
            spec: self.spec,
            strategy: *cfg,
            bytes: ByteBreakdown {
                model_states: p.model_states.total(),
                ..ByteBreakdown::default()
            },
            time: TimeBreakdown::default(),
            outcome,
        };

        // ---- stage 2: activation policy -----------------------------------
        let t0 = obs.as_ref().map(|_| Instant::now());
        let plan = decide_activation(&self.stages.policy, w, p);
        if let Some(o) = obs.as_deref_mut() {
            o.stage_secs.policy = t0.unwrap().elapsed().as_secs_f64();
        }
        let plan = match plan {
            Ok(plan) => plan,
            Err(out) => return fail(out),
        };

        // ---- stage 3: memory backend --------------------------------------
        let t0 = obs.as_ref().map(|_| Instant::now());
        let mem = account_memory(
            &self.stages,
            w,
            cfg,
            p,
            &plan,
            &mut source,
            obs.as_deref_mut(),
        );
        if let Some(o) = obs.as_deref_mut() {
            o.stage_secs.memory = t0.unwrap().elapsed().as_secs_f64();
        }
        let mem = match mem {
            Ok(mem) => mem,
            Err(out) => return fail(out),
        };

        // ---- stages 4+5: schedule and metrics -----------------------------
        let t0 = obs.as_ref().map(|_| Instant::now());
        let sched = build_schedule(
            w,
            cfg,
            p,
            self.head_secs(p),
            &plan,
            &mem,
            self.stages.derate,
            matches!(source, PlanSource::Row { .. }),
            obs.as_deref_mut(),
        );
        let report = self.finalize(w, cfg, &plan, &mem, sched);
        if let Some(o) = obs {
            o.stage_secs.schedule = t0.unwrap().elapsed().as_secs_f64();
        }
        report
    }

    /// Stage 5: fold the schedule result into the [`ExecutionReport`].
    fn finalize(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        plan: &ActivationPlan,
        mem: &MemoryAccounting,
        sched: Result<(f64, TimeBreakdown, u64), CellOutcome>,
    ) -> ExecutionReport {
        match sched {
            Ok((iter_secs, time, host_peak)) => {
                let outcome = match mfu_tgs(w, cfg, iter_secs) {
                    Some((mfu, tgs)) => CellOutcome::Ok(Metrics {
                        iter_secs,
                        mfu,
                        tgs,
                        peak_gpu_bytes: mem.bytes.peak(),
                        host_peak_bytes: host_peak,
                        reorgs: mem.reorgs,
                        alpha: plan.reported_alpha(),
                        strategy: cfg.describe(),
                    }),
                    // A zero/negative/non-finite makespan is a simulator
                    // bug surfaced as a cell, not a process abort.
                    None => CellOutcome::Degenerate { iter_secs },
                };
                ExecutionReport {
                    spec: self.spec,
                    strategy: *cfg,
                    bytes: mem.bytes,
                    time,
                    outcome,
                }
            }
            Err(out) => ExecutionReport {
                spec: self.spec,
                strategy: *cfg,
                bytes: mem.bytes,
                time: TimeBreakdown::default(),
                outcome: out,
            },
        }
    }
}

/// MFU and TGS of one iteration of `iter_secs` ([`compute_metrics`] over
/// the strategy's data-parallel batch).
fn mfu_tgs(w: &Workload, cfg: &ParallelConfig, iter_secs: f64) -> Option<(f64, f64)> {
    let samples = w.batch * cfg.dp as u64;
    compute_metrics(
        &w.model,
        w.seq_len,
        samples,
        w.n_gpus,
        w.calib.peak_flops,
        iter_secs,
    )
}

/// `needed`, saturated to `u64`, when it exceeds `usable`.
fn oom_certificate(needed: u128, usable: u64) -> Option<u64> {
    (needed > u128::from(usable)).then(|| saturate(needed))
}

/// A `u128` byte count as a `u64` shortfall, saturating at `u64::MAX`.
pub(crate) fn saturate(bytes: u128) -> u64 {
    u64::try_from(bytes).unwrap_or(u64::MAX)
}

/// Fold the run's [`ProfileCache`] lookups into the observer. The scope is
/// thread-local, so the counts are exact for this run even while other
/// workers hammer the same global cache (the old global snapshot-diff
/// attributed their lookups to whichever observer finished last).
fn finish_cache_delta(obs: Option<&mut RunObserver>, scope: Option<CacheStatsScope>) {
    if let (Some(o), Some(scope)) = (obs, scope) {
        let s = scope.finish();
        o.cache_hits += s.hits;
        o.cache_misses += s.misses;
    }
}

/// Outcome of stage 2: the per-layer activation traffic.
#[derive(Debug, Clone, Copy)]
enum ActivationPlan {
    /// Swap family: the three-stream schedule of the layout
    /// `[Swap × swap_layers][Recompute × rest][Retained × slots]` — the
    /// paper's uniform schedule when no layer is left to recompute.
    Swap {
        /// Reported α (token fraction swapped of the "others" bytes).
        alpha: f64,
        /// Token-wise swap layers (at most `layers_local − slots`); the
        /// layers between them and the retained ones fully recompute.
        swap_layers: usize,
        /// Rounding-buffer slots (= retained layers).
        slots: usize,
        /// Per-layer staged traffic of each swapping layer across the
        /// offload chain, nearest tier first (tier 0 = host over PCIe).
        traffic: TierTrafficList,
        /// Token-wise recompute seconds before each swapped layer's backward.
        t_recompute: f64,
    },
    /// Recompute family: closed-form timing, `refwd` layers re-forwarded.
    Recompute { refwd: bool },
}

impl ActivationPlan {
    fn reported_alpha(&self) -> Option<f64> {
        match self {
            ActivationPlan::Swap { alpha, .. } => Some(*alpha),
            ActivationPlan::Recompute { .. } => None,
        }
    }
}

/// One tier's traffic entry, with the link parameters taken from the
/// calibration's hierarchy (latency 0.0 when the chain has no such tier —
/// idle tiers never charge their latency anyway).
fn tier_traffic(w: &Workload, tier: usize, bytes: u64) -> TierTraffic {
    TierTraffic {
        bytes,
        bandwidth: w.calib.effective_tier_bandwidth(tier),
        latency_secs: w.calib.hierarchy.tier(tier).map_or(0.0, |t| t.latency_secs),
    }
}

/// Stage 2. The swap arm offloads, on each of its `swap_layers` (clamped
/// to the staged layers), what its α rule picks, behind one gate: a tier
/// the staged layers overflow is `X_oohm`.
fn decide_activation(
    policy: &ActivationPolicy,
    w: &Workload,
    p: &ProfileReport,
) -> Result<ActivationPlan, CellOutcome> {
    let (rule, swap_layers, slots) = match *policy {
        ActivationPolicy::Swap {
            alpha,
            swap_layers,
            slots,
        } => (alpha, swap_layers, slots),
        ActivationPolicy::FullRecompute => return Ok(ActivationPlan::Recompute { refwd: true }),
        ActivationPolicy::KeepAll => return Ok(ActivationPlan::Recompute { refwd: false }),
    };
    // The buffers rotate in pairs at least (Figure 6): fewer slots is no
    // valid configuration rather than a schedule.
    if slots < 2 {
        return Err(CellOutcome::NoValidStrategy);
    }
    let inputs = p.alpha_inputs(&w.calib, slots);
    let swap_layers = swap_layers.min(inputs.staged_layers);
    let offload = rule.offload(w, p, &inputs);
    let mandatory = p.split.s_input + p.split.s_attn;
    let mut traffic = TierTrafficList::new();
    for (tier, &others) in offload.others[..offload.tiers].iter().enumerate() {
        let bytes = if tier == offload.mandatory_tier {
            mandatory + others
        } else {
            others
        };
        let needed = (swap_layers as u64).saturating_mul(bytes);
        let capacity = w.calib.tier_capacity_per_gpu(tier);
        if needed > capacity {
            return Err(CellOutcome::Oohm { needed, capacity });
        }
        traffic.push(tier_traffic(w, tier, bytes));
    }
    let swapped: u64 = offload.others.iter().sum();
    let recompute_fraction = 1.0 - swapped as f64 / p.split.s_others.max(1) as f64;
    Ok(ActivationPlan::Swap {
        alpha: offload.alpha,
        swap_layers,
        slots,
        traffic,
        t_recompute: recompute_fraction * p.layer_time.fwd_without_attention(),
    })
}

/// What one swapping layer offloads under an [`AlphaRule`].
struct Offload {
    /// Reported α.
    alpha: f64,
    /// Bytes of the recomputable ("others") skeletal tensors each tier
    /// takes, host first; the rest of them is recomputed.
    others: [u64; MAX_TIERS],
    /// Tiers the rule stages on.
    tiers: usize,
    /// The tier that takes the mandatory input/attention rows.
    mandatory_tier: usize,
}

impl AlphaRule {
    fn offload(self, w: &Workload, p: &ProfileReport, inputs: &AlphaInputs) -> Offload {
        let s_others = p.split.s_others;
        let share = |alpha: f64| (alpha * s_others as f64).round() as u64;
        let mut others = [0u64; MAX_TIERS];
        let host_only = |alpha, others| Offload {
            alpha,
            others,
            tiers: 1,
            mandatory_tier: 0,
        };
        match self {
            AlphaRule::Fixed(alpha) => {
                others[0] = share(alpha);
                host_only(alpha, others)
            }
            AlphaRule::WholeTensors => {
                // Per-tensor candidates (Figure 5's "others"), largest first.
                let mut candidates: Vec<u64> = memo_model::activations::skeletal_catalog(&p.dims)
                    .into_iter()
                    .filter(|t| t.kind.token_wise_recomputable())
                    .map(|t| t.bytes)
                    .collect();
                candidates.sort_unstable_by(|a, b| b.cmp(a));
                let mandatory = p.split.s_input + p.split.s_attn;
                let bw_budget = (inputs.bandwidth * inputs.t_layer_fwd) as u64;
                let host_budget = inputs.host_capacity / inputs.staged_layers.max(1) as u64;
                let budget = bw_budget.min(host_budget);
                for bytes in candidates {
                    if mandatory + others[0] + bytes <= budget {
                        others[0] += bytes;
                    }
                }
                host_only(others[0] as f64 / s_others.max(1) as f64, others)
            }
            AlphaRule::Lp { depth } => {
                let chain = w.calib.hierarchy.len().min(MAX_TIERS);
                let tiers = match depth {
                    0 => chain,
                    d => (d as usize).min(chain),
                }
                .max(1);
                let links: Vec<TierLink> = (1..tiers)
                    .map(|k| TierLink {
                        bandwidth: w.calib.effective_tier_bandwidth(k),
                        capacity: w.calib.tier_capacity_per_gpu(k),
                    })
                    .collect();
                let sol = solve_alpha_tiered(inputs, &links);
                for (k, o) in others[..tiers].iter_mut().enumerate() {
                    *o = share(sol.alpha(k));
                }
                Offload {
                    alpha: sol.alpha_total().min(1.0),
                    others,
                    tiers,
                    // Mandatory rows the host cannot hold even at α = 0
                    // spill to the next tier when there is one.
                    mandatory_tier: usize::from(sol.host_infeasible_at_zero && tiers > 1),
                }
            }
        }
    }
}

/// Outcome of stage 3.
#[derive(Debug, Clone, Copy)]
struct MemoryAccounting {
    bytes: ByteBreakdown,
    reorgs: u64,
}

fn account_memory(
    stages: &PipelineStages,
    w: &Workload,
    cfg: &ParallelConfig,
    p: &ProfileReport,
    plan: &ActivationPlan,
    source: &mut PlanSource<'_>,
    obs: Option<&mut RunObserver>,
) -> Result<MemoryAccounting, CellOutcome> {
    let usable = w.calib.usable_gpu_memory();
    match stages.backend {
        MemoryBackend::StaticPlan => {
            // The bi-level plan is a pure function of the trace, which is a
            // pure function of the profile key — memoized beside the profile.
            // A row's cells borrow the plan the row holds.
            let looked_up;
            let report: &BilevelReport = match source {
                PlanSource::Lookup { key } => {
                    looked_up = match key {
                        Some(key) => ProfileCache::global().plan_keyed(
                            (*key).clone(),
                            stages.planner,
                            &p.trace,
                        ),
                        None => Arc::new(crate::planner::plan_with(&p.trace, stages.planner)),
                    };
                    &looked_up
                }
                PlanSource::Row { key, plan: held } => held.get_or_insert_with(|| {
                    let key = (*key).clone();
                    ProfileCache::global().plan_keyed(key, stages.planner, &p.trace)
                }),
            };
            let bytes = ByteBreakdown {
                model_states: p.model_states.total(),
                skeletal_buffers: skeletal_bytes(p, plan),
                planned_arena: report.plan.peak,
            };
            if bytes.peak() > usable {
                return Err(CellOutcome::Oom {
                    needed: bytes.peak(),
                    capacity: usable,
                });
            }
            Ok(MemoryAccounting { bytes, reorgs: 0 })
        }
        MemoryBackend::CachingReplay { zero3_prefetch } => {
            let static_bytes = replay_static_bytes(w, cfg, zero3_prefetch);
            let (peak_reserved, reorgs) = caching_replay_pass(w, cfg, p, static_bytes, obs)?;
            Ok(MemoryAccounting {
                bytes: ByteBreakdown {
                    model_states: static_bytes,
                    skeletal_buffers: 0,
                    planned_arena: peak_reserved,
                },
                reorgs,
            })
        }
    }
}

/// The rounding-buffer bytes a static plan holds beside its arena. Swap
/// and retained layers rotate through the same `slots` rounding buffers;
/// recompute layers pass through without touching the ring.
fn skeletal_bytes(p: &ProfileReport, plan: &ActivationPlan) -> u64 {
    match *plan {
        ActivationPlan::Swap { alpha, slots, .. } => {
            memo_swap::buffers::skeletal_gpu_bytes_with_slots(
                p.split.s_input,
                p.split.s_attn,
                p.split.s_others,
                alpha,
                slots,
            )
        }
        ActivationPlan::Recompute { .. } => 0,
    }
}

/// The bytes a caching-replay run pins outside the allocator: the fp16
/// parameters, plus two ZeRO-3 gather buffers under `zero3_prefetch`.
/// Saturates at `u64::MAX`, which no device holds, so an overflowing model
/// is a typed `X_oom` rather than a wrapped sum that fits.
fn replay_static_bytes(w: &Workload, cfg: &ParallelConfig, zero3_prefetch: bool) -> u64 {
    let params = memo_parallel::memory::params_bytes(&w.model, cfg);
    if zero3_prefetch {
        let gather = memo_parallel::memory::zero3_gather_bytes(&w.model, cfg);
        params.saturating_add(gather.saturating_mul(2))
    } else {
        params
    }
}

/// The liveness certificate's [`Floor`] of a caching-replay run of `cfg`:
/// the static bytes plus every persistent optimizer tensor. Inside the
/// allocator, live bytes ≤ allocated ≤ reserved ≤ the `usable − static` it
/// manages, and the steady pass reaches the liveness peak with every
/// persistent tensor live, so some `malloc` up to there fails when the sum
/// with the peak exceeds `usable`. Static bytes of `usable` or more are
/// refused before any `malloc` ([`caching_replay_pass`]'s own first check),
/// and are the `needed`; that check also keeps the persistent sizes of a
/// model this large from being summed at all.
fn replay_floor(w: &Workload, cfg: &ParallelConfig, zero3_prefetch: bool) -> Floor {
    let static_bytes = replay_static_bytes(w, cfg, zero3_prefetch);
    if static_bytes >= w.calib.usable_gpu_memory() {
        return Floor::Refused(static_bytes);
    }
    let persistent = memo_parallel::memory::persistent_tensor_bytes(&w.model, cfg);
    Floor::PlusPeak(u128::from(static_bytes) + persistent)
}

thread_local! {
    /// This thread's caching-replay workspace: every replay resets it
    /// ([`CachingAllocator::reset`]) rather than building a fresh
    /// allocator, so its slab, free lists and tensor table keep their
    /// capacity from one replay to the next.
    static REPLAY_WORKSPACE: RefCell<CachingAllocator> = RefCell::new(CachingAllocator::new(0));
}

/// Replay a baseline through the caching allocator the way a real PyTorch
/// job runs ([`replay_training`]): iteration 1 on a fresh allocator (this
/// thread's workspace, reset to the device's capacity), then
/// the optimizer's lazy allocation of persistent gradient/Adam tensors
/// (which land scattered in the cached activation segments and pin them),
/// then a steady-state iteration whose reorganisations and peak are what
/// training actually pays every step. `static_bytes`
/// ([`replay_static_bytes`]) stay outside the allocator. Returns the
/// steady-state iteration's peak reserved bytes and reorganisation count —
/// all the pipeline reads, so no pass records a per-request series.
fn caching_replay_pass(
    w: &Workload,
    cfg: &ParallelConfig,
    p: &ProfileReport,
    static_bytes: u64,
    obs: Option<&mut RunObserver>,
) -> Result<(u64, u64), CellOutcome> {
    let usable = w.calib.usable_gpu_memory();
    if static_bytes >= usable {
        return Err(CellOutcome::Oom {
            needed: static_bytes,
            capacity: usable,
        });
    }
    let persistent = memo_parallel::memory::persistent_tensor_sizes(&w.model, cfg);
    // Record the *steady-state* iteration only — that is the one whose
    // fragmentation behaviour training pays every step (Figure 1a).
    let record = obs.is_some();
    REPLAY_WORKSPACE.with_borrow_mut(|alloc| {
        alloc.reset(usable - static_bytes);
        let replayed = replay_training(alloc, &p.trace, &persistent, |a| a.record_events(record));
        if let Some(o) = obs {
            o.alloc_events = alloc.take_events();
        }
        replayed.map_err(|err| replay_oom(&err, static_bytes, usable))
    })
}

/// A single-stream timeline for the recompute family, mirroring the
/// closed-form iteration: forward sweep, head, backward sweep (with the
/// re-forward before each layer's backward under full recomputation),
/// reorganisation stalls, optimizer, gradient sync. All durations carry
/// the same derate as the closed-form seconds, so the rendered makespan
/// matches the reported iteration time up to the pipeline bubble (which
/// is a factor on the total, not a span).
fn synthesize_recompute_timeline(
    p: &ProfileReport,
    head_secs: f64,
    refwd: bool,
    stalls: f64,
    derate: f64,
) -> Timeline {
    let lt = &p.layer_time;
    let secs = |s: f64| SimTime::from_secs_f64(s / derate);
    let mut tl = Timeline::new();
    let c = tl.add_stream("compute");
    for i in 0..p.layers_local {
        tl.enqueue(c, secs(lt.fwd()), format!("fwd L{i}"));
    }
    tl.enqueue(c, secs(head_secs), "head");
    for i in (0..p.layers_local).rev() {
        if refwd {
            tl.enqueue(c, secs(lt.fwd()), format!("refwd L{i}"));
        }
        tl.enqueue(c, secs(lt.bwd), format!("bwd L{i}"));
    }
    if stalls > 0.0 {
        tl.enqueue(c, secs(stalls), "reorg stalls");
    }
    tl.enqueue(c, secs(p.optimizer_secs), "optimizer");
    tl.enqueue(c, secs(p.grad_sync_secs), "grad sync");
    tl
}

/// A replay OOM with the static bytes folded into the shortfall, saturating
/// at `u64::MAX` (a wrapped sum would rank as the smallest shortfall and win
/// the least-bad failure). Plan errors (`NotInPlan`/`PlanOverlap`) cannot
/// occur on a caching allocator, but are still reported with real numbers
/// rather than a sentinel.
fn replay_oom(err: &AllocError, static_bytes: u64, usable: u64) -> CellOutcome {
    match *err {
        AllocError::OutOfMemory {
            requested,
            reserved,
            ..
        } => CellOutcome::Oom {
            needed: static_bytes
                .saturating_add(reserved)
                .saturating_add(requested),
            capacity: usable,
        },
        AllocError::NotInPlan(_) | AllocError::PlanOverlap(_, _) => CellOutcome::Oom {
            needed: static_bytes,
            capacity: usable,
        },
    }
}

/// Map a staging failure into the cell outcome, saturating like
/// [`replay_oom`]: a pool refuses a request whose sum with its used bytes
/// passes `u64::MAX`.
fn oohm(e: memo_swap::tiers::OutOfTierMemory) -> CellOutcome {
    CellOutcome::Oohm {
        needed: e.used.saturating_add(e.requested),
        capacity: e.capacity,
    }
}

/// One staging pool per tier the plan touches: the host pool carries its
/// legacy `.max(1)` floor, deeper pools their exact capacity shares.
fn staging_for(w: &Workload, traffic: &TierTrafficList) -> TierStaging {
    let n = traffic.len().max(1);
    let mut capacities = [0u64; MAX_TIERS];
    for (k, c) in capacities[..n].iter_mut().enumerate() {
        *c = match k {
            0 => w.calib.host_capacity_per_gpu().max(1),
            _ => w.calib.tier_capacity_per_gpu(k),
        };
    }
    TierStaging::new(&capacities[..n])
}

/// The recompute family's closed-form iteration (see [`recompute_timing`]).
struct RecomputeTiming {
    /// Per-stage work: forward, head, optional re-forward, backward.
    compute: f64,
    /// Divisor on the raw seconds (1.0 unless the mode derates).
    derate: f64,
    /// `(compute · bubble + optimizer + grad sync + stalls) / derate`.
    iter_secs: f64,
}

/// The closed-form recompute-family timing with `stalls` seconds of
/// reorganisation. Stage 4's `Recompute` arm and the search's zero-stall
/// replay bound ([`ExecutionPipeline::replay_tgs_bound`]) both call it, so
/// the bound cannot drift from the time it bounds: `stalls` enters last,
/// as one non-negative addend before the division.
fn recompute_timing(
    w: &Workload,
    cfg: &ParallelConfig,
    p: &ProfileReport,
    head_secs: f64,
    refwd: bool,
    derate: bool,
    stalls: f64,
) -> RecomputeTiming {
    let layers = p.layers_local as f64;
    let lt = &p.layer_time;
    let compute = if refwd {
        layers * (2.0 * lt.fwd() + lt.bwd) + head_secs
    } else {
        layers * (lt.fwd() + lt.bwd) + head_secs
    };
    let bubble_factor = comm::pipeline_bubble_factor(cfg.pp, w.batch as usize);
    let raw = compute * bubble_factor + p.optimizer_secs + p.grad_sync_secs + stalls;
    let derate = if derate {
        w.calib.ds_compute_derate
    } else {
        1.0
    };
    RecomputeTiming {
        compute,
        derate,
        iter_secs: raw / derate,
    }
}

/// Stage 4: the iteration seconds, their decomposition, and the host peak.
/// `head_secs` is the stage-scaled head time (the cached [`ProfileReport`]
/// stays pristine so it can be shared across modes). `segment_cache` routes
/// the unobserved swap-family builds of a grid row through the global
/// [`memo_swap::SegmentCache`]; cached and uncached builds are bit-identical
/// (the cache key covers every recurrence input).
#[allow(clippy::too_many_arguments)] // internal stage fn; args mirror the stage inputs
fn build_schedule(
    w: &Workload,
    cfg: &ParallelConfig,
    p: &ProfileReport,
    head_secs: f64,
    plan: &ActivationPlan,
    mem: &MemoryAccounting,
    derate: bool,
    segment_cache: bool,
    obs: Option<&mut RunObserver>,
) -> Result<(f64, TimeBreakdown, u64), CellOutcome> {
    let bubble_factor = comm::pipeline_bubble_factor(cfg.pp, w.batch as usize);
    let lt = &p.layer_time;
    // Shared metric tail of the swap-family arms.
    let finish_swap =
        |makespan: SimTime, busy: SimTime, idle: SimTime, host_peak: u64, recompute: f64| {
            let makespan = makespan.as_secs_f64();
            let iter_secs = makespan * bubble_factor + p.optimizer_secs + p.grad_sync_secs;
            (
                iter_secs,
                TimeBreakdown {
                    compute: (busy.as_secs_f64() - recompute).max(0.0),
                    recompute,
                    stall: idle.as_secs_f64(),
                    bubble: makespan * (bubble_factor - 1.0),
                    optimizer: p.optimizer_secs,
                    grad_sync: p.grad_sync_secs,
                },
                host_peak,
            )
        };
    match *plan {
        ActivationPlan::Swap {
            swap_layers,
            slots,
            traffic,
            t_recompute,
            ..
        } => {
            let costs = LayerCosts {
                t_fwd: SimTime::from_secs_f64(lt.fwd()),
                t_bwd: SimTime::from_secs_f64(lt.bwd),
                t_recompute: SimTime::from_secs_f64(t_recompute),
                traffic,
            };
            // [Swap × k][Recompute × rec][Retained × last slots]: recompute
            // layers re-forward in full (`lt.fwd()`); `rec = 0` is the
            // paper's uniform schedule.
            let n = p.layers_local;
            let retained = slots.min(n);
            let rec = n - swap_layers - retained;
            let mut refwd_costs = costs;
            refwd_costs.t_recompute = SimTime::from_secs_f64(lt.fwd());
            let segments = [
                LayerSegment::new(swap_layers, SegmentPolicy::Swap, costs),
                LayerSegment::new(rec, SegmentPolicy::Recompute, refwd_costs),
                LayerSegment::new(retained, SegmentPolicy::Retained, costs),
            ];
            let mut staging = staging_for(w, &traffic);
            let recompute = swap_layers as f64 * t_recompute + rec as f64 * lt.fwd();
            let t_head = SimTime::from_secs_f64(head_secs);
            if let Some(o) = obs {
                // Observed runs record the Figure-11 timeline. The
                // three-stream schedule already *is* a timeline; hand it
                // over instead of letting the pipeline drop it.
                let sched = memo_swap::build_schedule(&segments, t_head, &mut staging, slots)
                    .map_err(oohm)?;
                o.timeline = Some(sched.timeline);
                return Ok(finish_swap(
                    sched.makespan,
                    sched.compute_busy,
                    sched.compute_idle,
                    sched.host_peak,
                    recompute,
                ));
            }
            // Unobserved runs (the strategy search's inner loop, grid rows)
            // read the scalar recurrence: steady-state layer splicing, no
            // timeline at all. Grid rows memoize it. It is bit-identical to
            // the recorded build on every metric (swap's differential
            // suite), so the choice is invisible to the outcome.
            let s = if segment_cache {
                memo_swap::SegmentCache::global().schedule_cursor_only(
                    &segments,
                    t_head,
                    &mut staging,
                    slots,
                )
            } else {
                memo_swap::build_schedule_scalars(&segments, t_head, &mut staging, slots)
            }
            .map_err(oohm)?;
            Ok(finish_swap(
                s.makespan(),
                s.compute_busy,
                s.compute_idle(),
                staging.host_peak(),
                recompute,
            ))
        }
        ActivationPlan::Recompute { refwd } => {
            let layers = p.layers_local as f64;
            let stalls = mem.reorgs as f64 * w.calib.reorg_penalty_secs;
            let RecomputeTiming {
                compute,
                derate,
                iter_secs,
            } = recompute_timing(w, cfg, p, head_secs, refwd, derate, stalls);
            let useful = layers * (lt.fwd() + lt.bwd) + head_secs;
            let refwd_secs = if refwd { layers * lt.fwd() } else { 0.0 };
            if let Some(o) = obs {
                // No timeline exists for the closed-form path; synthesize
                // one from the same layer costs so the recompute family is
                // traceable too. Built only when observed — the metric
                // path above never touches it.
                o.timeline = Some(synthesize_recompute_timeline(
                    p, head_secs, refwd, stalls, derate,
                ));
            }
            Ok((
                iter_secs,
                TimeBreakdown {
                    compute: useful / derate,
                    recompute: refwd_secs / derate,
                    stall: stalls / derate,
                    bubble: compute * (bubble_factor - 1.0) / derate,
                    optimizer: p.optimizer_secs / derate,
                    grad_sync: p.grad_sync_secs / derate,
                },
                0,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::w7;
    use memo_model::config::ModelConfig;

    #[test]
    fn replay_oom_saturates_instead_of_wrapping() {
        // A wrapped `needed` would rank as the smallest shortfall and win
        // the search's least-bad failure.
        let err = AllocError::OutOfMemory {
            requested: u64::MAX / 2 + 2,
            allocated: u64::MAX / 4,
            reserved: u64::MAX / 2,
            capacity: 80 << 30,
        };
        assert_eq!(
            replay_oom(&err, 1 << 30, 80 << 30),
            CellOutcome::Oom {
                needed: u64::MAX,
                capacity: 80 << 30,
            }
        );
    }

    #[test]
    fn replay_static_bytes_saturate_to_a_typed_oom() {
        // One layer so wide that the fp16 parameters (2·P ≈ 0.75·2⁶⁴ or
        // 0.375·2⁶⁴ bytes) and the two ZeRO-3 gather buffers overflow
        // `u64` together: the gather product itself in the first shape,
        // only their sum in the second. The profile is a small one, since
        // the static bytes come from the workload's model alone.
        let small = Workload::new(ModelConfig::gpt_7b(), 1, 1 << 10);
        let cfg = ParallelConfig::ulysses(1, 1);
        let ds = ExecutionPipeline::new(SystemSpec::DeepSpeed);
        let p = ds.profile(&small, &cfg, false);
        for (hidden, ffn_hidden) in [(1usize << 30, 1usize << 30), (1 << 29, 1 << 31)] {
            let mut huge = small.clone();
            huge.model = ModelConfig {
                name: "huge",
                n_layers: 1,
                hidden,
                ffn_hidden,
                n_heads: 1,
                vocab: 1,
            };
            assert_eq!(replay_static_bytes(&huge, &cfg, true), u64::MAX);
            let certified = Screen::MustOom { needed: u64::MAX };
            assert_eq!(ds.screen(&huge, &cfg, &p), certified);
            assert_eq!(
                ds.execute_profiled(&huge, &cfg, &p, None),
                CellOutcome::Oom {
                    needed: u64::MAX,
                    capacity: huge.calib.usable_gpu_memory(),
                }
            );
        }
    }

    #[test]
    fn host_gate_counts_the_layers_the_schedule_stages() {
        // 7B on 8 GPUs at 256K, full swap on 4 rounding buffers: the
        // schedule stages 28 layers × 4 GiB, so a host that holds 29 of
        // them must not be refused for the 30 that two buffers would stage.
        let mut w = w7(8, 256);
        let per_gpu = 124_554_051_584u64;
        let host = &w.calib.hierarchy.tiers[0];
        let node_bytes = per_gpu as f64 * w.calib.gpus_per_node as f64 / host.usable_fraction;
        w.calib.set_host_memory_bytes(node_bytes.ceil() as u64);
        let capacity = w.calib.host_capacity_per_gpu();
        assert!(capacity > 28 * (4 << 30) && capacity < 30 * (4 << 30));
        let cfg = ParallelConfig::megatron(4, 2, 1, 1);
        let report = ExecutionPipeline::memo_at_alpha(1.0, 4).execute_cached(&w, &cfg, true);
        match report.outcome {
            CellOutcome::Ok(m) => assert_eq!(m.host_peak_bytes, 120_259_084_288),
            other => panic!("expected a feasible run, got {other:?}"),
        }
    }
}
