//! The staged execution pipeline — Figure 10 made explicit.
//!
//! Every execution mode ([`SystemSpec`]) runs the same five stages:
//!
//! 1. **profile** — memory-request trace, per-layer costs, α program
//!    ([`crate::profiler`]);
//! 2. **activation policy** ([`ActivationPolicy`]) — how activations survive
//!    to the backward pass: token-wise α swap into rounding buffers,
//!    per-tensor greedy swap, an N-tier host/NVMe/… waterfall, full
//!    recomputation, or keep-all. Swap policies can fail host/NVMe
//!    feasibility (`X_oohm`);
//! 3. **memory backend** ([`MemoryBackend`]) — where tensors live: the
//!    bi-level static plan or a PyTorch-style caching-allocator replay.
//!    Both report a peak, reorganisation count, and a uniform `X_oom`;
//! 4. **schedule** — the three-stream swap schedule for swap policies
//!    (residual `X_oohm`), the closed-form recompute timing otherwise;
//! 5. **metrics** — MFU/TGS plus the [`ByteBreakdown`]/[`TimeBreakdown`]
//!    accounting of the [`ExecutionReport`].
//!
//! One stage sequence serves every caller; a [`ProfileSource`] says where
//! stages 1 and 3 get the profile and the static plan — the process-global
//! [`ProfileCache`], or a [`DeltaContext`]'s pins on the delta path of dense
//! grids.

use crate::cache::{CacheStatsScope, ProfileCache};
use crate::delta::DeltaContext;
use crate::metrics::{compute_metrics, Metrics};
use crate::observer::RunObserver;
use crate::outcome::CellOutcome;
use crate::profiler::ProfileReport;
use crate::session::Workload;
use memo_alloc::caching::CachingAllocator;
use memo_alloc::snapshot::{replay, SnapshotSeries};
use memo_alloc::AllocError;
use memo_hal::engine::{RecordLevel, Timeline};
use memo_hal::time::SimTime;
use memo_model::trace::{IterationTrace, RematPolicy};
use memo_parallel::comm;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_plan::bilevel::BilevelReport;
use memo_plan::dispatch::PlannerKind;
use memo_swap::schedule::{LayerCosts, LayerSegment, SegmentPolicy, TierTraffic, TierTrafficList};
use memo_swap::tiers::TierStaging;
use std::sync::Arc;
use std::time::Instant;

/// Stage 2: how activations survive from forward to backward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivationPolicy {
    /// Token-wise α split (§4.1): swap `α · others` plus the mandatory
    /// input/attention rows into `slots` rotating rounding buffers,
    /// recompute the rest. `None` takes the solved α of the LP.
    TokenWise {
        alpha_override: Option<f64>,
        slots: usize,
    },
    /// Capuchin-style granularity: greedily swap whole tensors, largest
    /// first, under the overlap and host budgets.
    TensorGreedy,
    /// N-tier α waterfall over the calibration's [`memo_hal::MemoryHierarchy`]:
    /// token rows cascade down the chain, each tier absorbing what the
    /// nearer tiers cannot. `depth = 0` uses the whole chain; `depth = d`
    /// truncates it to the first `d` offload tiers (so `d = 1` is the
    /// host-only token-wise policy and `d = 2` the host+NVMe pair).
    Tiered { depth: u8 },
    /// Per-layer mixed policy (the delta-search extension): the first
    /// `swap_layers` layers swap token-wise exactly as [`Self::TokenWise`],
    /// the last `slots` layers stay resident in their rounding buffers, and
    /// every layer in between fully recomputes — trading host-staging
    /// pressure for re-forward compute. `swap_layers` is clamped to the
    /// layers that could swap at all (`layers_local − slots`); at the clamp
    /// the schedule is bit-identical to [`Self::TokenWise`].
    MixedTokenWise {
        swap_layers: usize,
        alpha_override: Option<f64>,
        slots: usize,
    },
    /// Re-forward every transformer layer during backward (Megatron-LM
    /// full recomputation, also DeepSpeed's configuration).
    FullRecompute,
    /// Keep every activation resident (no recompute, no swap).
    KeepAll,
}

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
    pub head_scale: f64,
    /// Stage 2 choice.
    pub policy: ActivationPolicy,
    /// Stage 3 choice.
    pub backend: MemoryBackend,
    /// Divisor on the closed-form iteration time (DeepSpeed's kernel and
    /// all-to-all inefficiency, calibrated).
    pub derate: bool,
    /// Which planner builds the [`MemoryBackend::StaticPlan`] layout: the
    /// bi-level decomposition or the flat whole-trace dispatch (exact /
    /// boxing / best-fit). Participates in the plan-cache fingerprint.
    pub planner: PlannerKind,
}

impl PipelineStages {
    /// The stage choices for a named execution mode.
    pub fn for_spec(spec: SystemSpec) -> PipelineStages {
        let token_wise = |alpha_override, slots| PipelineStages {
            remat: RematPolicy::MemoTokenWise,
            materialize_logits: false,
            head_scale: 1.0,
            policy: ActivationPolicy::TokenWise {
                alpha_override,
                slots,
            },
            backend: MemoryBackend::StaticPlan,
            derate: false,
            planner: PlannerKind::Bilevel,
        };
        match spec {
            SystemSpec::Memo => token_wise(None, 2),
            SystemSpec::MemoWholePlan => PipelineStages {
                planner: PlannerKind::WholeTrace,
                ..token_wise(None, 2)
            },
            SystemSpec::FullSwapPlan => token_wise(Some(1.0), 2),
            SystemSpec::MemoBufferSlots(n) => token_wise(None, n as usize),
            SystemSpec::TensorHybrid => PipelineStages {
                policy: ActivationPolicy::TensorGreedy,
                ..token_wise(None, 2)
            },
            SystemSpec::MemoTiered(depth) => PipelineStages {
                policy: ActivationPolicy::Tiered { depth },
                ..token_wise(None, 2)
            },
            SystemSpec::MemoMixed(k) => PipelineStages {
                policy: ActivationPolicy::MixedTokenWise {
                    swap_layers: k as usize,
                    alpha_override: None,
                    slots: 2,
                },
                ..token_wise(None, 2)
            },
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
    /// Peak GPU bytes: everything resident at once.
    pub fn peak(&self) -> u64 {
        self.model_states + self.skeletal_buffers + self.planned_arena
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
    pub fn total(&self) -> f64 {
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
    /// Time decomposition; `time.total()` equals the metrics' `iter_secs`
    /// on success.
    pub time: TimeBreakdown,
    /// The Table 3/4 cell: metrics, `X_oom`, or `X_oohm`.
    pub outcome: CellOutcome,
}

/// Where stage 1 gets the profile and stage 3 the static plan.
#[derive(Debug)]
pub enum ProfileSource<'a> {
    /// The process-global [`ProfileCache`]; `use_cache = false` recomputes
    /// both unconditionally (the forced-serial baseline leg of the search).
    Cache { use_cache: bool },
    /// A [`DeltaContext`]'s pins: no key construction or shard locking on
    /// reuse, and the swap-family schedule goes through the global
    /// [`memo_swap::SegmentCache`]. Caching-replay backends have no
    /// incremental structure to exploit and fall back to the global cache.
    /// Reports are bit-identical to `Cache { use_cache: true }` — every
    /// reuse layer keys on all of its inputs (the lockstep differential
    /// suite asserts it).
    Pinned(&'a mut DeltaContext),
}

impl ProfileSource<'_> {
    fn profile(
        &mut self,
        w: &Workload,
        cfg: &ParallelConfig,
        st: &PipelineStages,
    ) -> Arc<ProfileReport> {
        match self {
            ProfileSource::Cache { use_cache } => {
                ProfileCache::global().profile(w, cfg, st.remat, st.materialize_logits, *use_cache)
            }
            ProfileSource::Pinned(ctx) => ctx.profile(w, cfg, st.remat, st.materialize_logits),
        }
    }

    /// The memory plan of `trace`, which must be the trace of this
    /// source's profile for the same key.
    fn plan(
        &mut self,
        w: &Workload,
        cfg: &ParallelConfig,
        st: &PipelineStages,
        trace: &IterationTrace,
    ) -> Arc<BilevelReport> {
        match self {
            ProfileSource::Cache { use_cache } => ProfileCache::global().plan(
                w,
                cfg,
                st.remat,
                st.materialize_logits,
                st.planner,
                trace,
                *use_cache,
            ),
            ProfileSource::Pinned(ctx) => {
                ctx.plan(w, cfg, st.remat, st.materialize_logits, st.planner, trace)
            }
        }
    }
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
        stages.policy = ActivationPolicy::TokenWise {
            alpha_override: Some(alpha),
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
        stages.policy = ActivationPolicy::MixedTokenWise {
            swap_layers: k,
            alpha_override,
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
        self.execute_from(w, cfg, ProfileSource::Cache { use_cache }, None)
    }

    /// The stage sequence, with the profile and plan taken from `source`
    /// and an optional [`RunObserver`] threaded through every stage. With
    /// `obs = None` the pipeline takes the exact unobserved path — no
    /// clock reads, no stats scopes, no allocator event recording, no
    /// timeline capture — so observation can never perturb golden-parity
    /// outputs (the observer only *reads* what the stages already
    /// computed, and the one genuinely new artifact, the recompute-family
    /// timeline, is synthesized outside the metric path).
    pub fn execute_from(
        &self,
        w: &Workload,
        cfg: &ParallelConfig,
        mut source: ProfileSource<'_>,
        mut obs: Option<&mut RunObserver>,
    ) -> ExecutionReport {
        debug_assert!(cfg
            .validate(&w.model, w.n_gpus, w.calib.gpus_per_node.min(w.n_gpus))
            .is_ok());
        if let ProfileSource::Pinned(ctx) = &mut source {
            let fallback = matches!(self.stages.backend, MemoryBackend::CachingReplay { .. });
            ctx.count_run(fallback);
            if fallback {
                source = ProfileSource::Cache { use_cache: true };
            } else {
                ctx.restamp(w);
            }
        }

        // ---- stage 1: profile ---------------------------------------------
        // Thread-local scope, not a global snapshot-diff: concurrent
        // requests on other workers must not leak into this run's counts.
        let cache_scope = obs.as_ref().map(|_| CacheStatsScope::enter());
        let t0 = obs.as_ref().map(|_| Instant::now());
        let p = source.profile(w, cfg, &self.stages);
        if let Some(o) = obs.as_deref_mut() {
            o.stage_secs.profile = t0.unwrap().elapsed().as_secs_f64();
        }
        // `x * 1.0` is bit-exact for finite x, so the unconditional multiply
        // reproduces the old in-place `if head_scale != 1.0` mutation.
        let head_secs = p.head_secs * self.stages.head_scale;

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
        let plan = decide_activation(&self.stages.policy, w, &p);
        if let Some(o) = obs.as_deref_mut() {
            o.stage_secs.policy = t0.unwrap().elapsed().as_secs_f64();
        }
        let plan = match plan {
            Ok(plan) => plan,
            Err(out) => {
                finish_cache_delta(obs, cache_scope);
                return fail(out);
            }
        };

        // ---- stage 3: memory backend --------------------------------------
        let t0 = obs.as_ref().map(|_| Instant::now());
        let mem = account_memory(
            &self.stages,
            w,
            cfg,
            &p,
            &plan,
            &mut source,
            obs.as_deref_mut(),
        );
        if let Some(o) = obs.as_deref_mut() {
            o.stage_secs.memory = t0.unwrap().elapsed().as_secs_f64();
        }
        let mem = match mem {
            Ok(mem) => mem,
            Err(out) => {
                finish_cache_delta(obs, cache_scope);
                return fail(out);
            }
        };

        // ---- stages 4+5: schedule and metrics -----------------------------
        let t0 = obs.as_ref().map(|_| Instant::now());
        let sched = build_schedule(
            w,
            cfg,
            &p,
            head_secs,
            &plan,
            &mem,
            self.stages.derate,
            matches!(source, ProfileSource::Pinned(_)),
            obs.as_deref_mut(),
        );
        let report = self.finalize(w, cfg, &plan, &mem, sched);
        if let Some(o) = obs.as_deref_mut() {
            o.stage_secs.schedule = t0.unwrap().elapsed().as_secs_f64();
        }
        finish_cache_delta(obs, cache_scope);
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
                let samples = w.batch * cfg.dp as u64;
                let outcome = match compute_metrics(
                    &w.model,
                    w.seq_len,
                    samples,
                    w.n_gpus,
                    w.calib.peak_flops,
                    iter_secs,
                ) {
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

/// Token-wise swap of `swapped_others` bytes of the recomputable skeletal
/// tensors per layer on the first `swap_layers` layers; the rest of each
/// swapping layer is recomputed before its backward.
fn token_wise_swap(
    w: &Workload,
    p: &ProfileReport,
    swapped_others: u64,
    report_alpha: f64,
    slots: usize,
    swap_layers: usize,
) -> ActivationPlan {
    let offload_bytes = p.split.s_input + p.split.s_attn + swapped_others;
    let recompute_fraction = 1.0 - swapped_others as f64 / p.split.s_others.max(1) as f64;
    let mut traffic = TierTrafficList::new();
    traffic.push(tier_traffic(w, 0, offload_bytes));
    ActivationPlan::Swap {
        alpha: report_alpha,
        swap_layers,
        slots,
        traffic,
        t_recompute: recompute_fraction * p.layer_time.fwd_without_attention(),
    }
}

/// [`token_wise_swap`] on every layer but the last `slots`, behind the
/// host gate shared by the single-tier swap policies: the solver's α is
/// feasible by construction unless even α = 0 overflows the host;
/// overrides and greedy picks may not be. The gate counts the layers the
/// schedule stages.
fn token_wise_plan(
    w: &Workload,
    p: &ProfileReport,
    swapped_others: u64,
    report_alpha: f64,
    slots: usize,
) -> Result<ActivationPlan, CellOutcome> {
    let swap_layers = p.layers_local.saturating_sub(slots);
    let host_capacity = w.calib.host_capacity_per_gpu();
    let staged_layers = swap_layers as u64;
    let staged = staged_layers * (p.split.s_input + p.split.s_attn + swapped_others);
    if p.alpha.host_infeasible_at_zero || staged > host_capacity {
        return Err(CellOutcome::Oohm {
            needed: staged.max(staged_layers * p.split.swapped_bytes(0.0)),
            capacity: host_capacity,
        });
    }
    Ok(token_wise_swap(
        w,
        p,
        swapped_others,
        report_alpha,
        slots,
        swap_layers,
    ))
}

fn decide_activation(
    policy: &ActivationPolicy,
    w: &Workload,
    p: &ProfileReport,
) -> Result<ActivationPlan, CellOutcome> {
    match *policy {
        ActivationPolicy::TokenWise {
            alpha_override,
            slots,
        } => {
            let alpha = alpha_override.unwrap_or(p.alpha.alpha);
            token_wise_plan(
                w,
                p,
                (alpha * p.split.s_others as f64).round() as u64,
                alpha,
                slots,
            )
        }
        ActivationPolicy::TensorGreedy => {
            // Per-tensor candidates (Figure 5's "others"), largest first.
            let mut candidates: Vec<u64> = memo_model::activations::skeletal_catalog(&p.dims)
                .into_iter()
                .filter(|t| t.kind.token_wise_recomputable())
                .map(|t| t.bytes)
                .collect();
            candidates.sort_unstable_by(|a, b| b.cmp(a));

            let mandatory = p.split.s_input + p.split.s_attn;
            let bw_budget = (w.calib.effective_pcie() * p.layer_time.fwd()) as u64;
            let staged_layers = p.layers_local.saturating_sub(2).max(1) as u64;
            let host_budget = w.calib.host_capacity_per_gpu() / staged_layers;
            let budget = bw_budget.min(host_budget);

            let mut picked = 0u64;
            for bytes in candidates {
                if mandatory + picked + bytes <= budget {
                    picked += bytes;
                }
            }
            let alpha_equiv = picked as f64 / p.split.s_others.max(1) as f64;
            token_wise_plan(w, p, picked, alpha_equiv, 2)
        }
        ActivationPolicy::Tiered { depth } => {
            use memo_swap::alpha::{solve_alpha_tiered, AlphaInputs, TierLink};
            let chain_len = w.calib.hierarchy.len().min(memo_swap::schedule::MAX_TIERS);
            let n_tiers = if depth == 0 {
                chain_len
            } else {
                (depth as usize).min(chain_len)
            }
            .max(1);
            if n_tiers <= 1 {
                // A one-tier chain is exactly the paper's token-wise policy.
                let alpha = p.alpha.alpha;
                return token_wise_plan(
                    w,
                    p,
                    (alpha * p.split.s_others as f64).round() as u64,
                    alpha,
                    2,
                );
            }
            // The greedy waterfall over the truncated chain; tier 0 (host)
            // inputs are identical to the base α program's.
            let links: Vec<TierLink> = (1..n_tiers)
                .map(|k| TierLink {
                    bandwidth: w.calib.effective_tier_bandwidth(k),
                    capacity: w.calib.tier_capacity_per_gpu(k),
                })
                .collect();
            let sol = solve_alpha_tiered(
                &AlphaInputs {
                    s_input: p.split.s_input,
                    s_attn: p.split.s_attn,
                    s_others: p.split.s_others,
                    bandwidth: w.calib.effective_pcie(),
                    t_layer_fwd: p.layer_time.fwd(),
                    n_layers: p.layers_local,
                    host_capacity: w.calib.host_capacity_per_gpu(),
                },
                &links,
            );
            // With deeper tiers, even the mandatory input+attn tensors can
            // spill past the host, so the hard failures are the deeper
            // tiers' own capacities.
            let staged_layers = p.layers_local.saturating_sub(2) as u64;
            let mut traffic = TierTrafficList::new();
            let host_bytes = if sol.host_infeasible_at_zero {
                0
            } else {
                p.split.s_input
                    + p.split.s_attn
                    + (sol.alpha(0) * p.split.s_others as f64).round() as u64
            };
            traffic.push(tier_traffic(w, 0, host_bytes));
            for k in 1..n_tiers {
                let bytes = (sol.alpha(k) * p.split.s_others as f64).round() as u64
                    + if k == 1 && sol.host_infeasible_at_zero {
                        p.split.s_input + p.split.s_attn
                    } else {
                        0
                    };
                if staged_layers * bytes > w.calib.tier_capacity_per_gpu(k) {
                    return Err(CellOutcome::Oohm {
                        needed: staged_layers * bytes,
                        capacity: w.calib.tier_capacity_per_gpu(k),
                    });
                }
                traffic.push(tier_traffic(w, k, bytes));
            }
            let alpha = sol.alpha_total().min(1.0);
            Ok(ActivationPlan::Swap {
                alpha,
                swap_layers: staged_layers as usize,
                slots: 2,
                traffic,
                t_recompute: (1.0 - alpha) * p.layer_time.fwd_without_attention(),
            })
        }
        ActivationPolicy::MixedTokenWise {
            swap_layers,
            alpha_override,
            slots,
        } => {
            let alpha = alpha_override.unwrap_or(p.alpha.alpha);
            let swapped_others = (alpha * p.split.s_others as f64).round() as u64;
            let k = swap_layers.min(p.layers_local.saturating_sub(slots));
            // Unlike the uniform gate, α = 0 overflowing the host is no
            // failure — `k = 0` is always host-feasible (pure recompute +
            // retained), which is exactly the search space this policy opens.
            let host_capacity = w.calib.host_capacity_per_gpu();
            let staged = k as u64 * (p.split.s_input + p.split.s_attn + swapped_others);
            if staged > host_capacity {
                return Err(CellOutcome::Oohm {
                    needed: staged,
                    capacity: host_capacity,
                });
            }
            Ok(token_wise_swap(w, p, swapped_others, alpha, slots, k))
        }
        ActivationPolicy::FullRecompute => Ok(ActivationPlan::Recompute { refwd: true }),
        ActivationPolicy::KeepAll => Ok(ActivationPlan::Recompute { refwd: false }),
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
    source: &mut ProfileSource<'_>,
    obs: Option<&mut RunObserver>,
) -> Result<MemoryAccounting, CellOutcome> {
    let usable = w.calib.usable_gpu_memory();
    match stages.backend {
        MemoryBackend::StaticPlan => {
            // The bi-level plan is a pure function of the trace, which is a
            // pure function of the profile key — memoized beside the profile.
            let report = source.plan(w, cfg, stages, &p.trace);
            let skeletal = match *plan {
                // Swap and retained layers rotate through the same `slots`
                // rounding buffers; recompute layers pass through without
                // touching the ring.
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
            };
            let bytes = ByteBreakdown {
                model_states: p.model_states.total(),
                skeletal_buffers: skeletal,
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
            let extra_static = if zero3_prefetch {
                2 * memo_parallel::memory::zero3_gather_bytes(&w.model, cfg)
            } else {
                0
            };
            let series = caching_replay_pass(w, cfg, p, extra_static, obs)?;
            Ok(MemoryAccounting {
                bytes: ByteBreakdown {
                    model_states: memo_parallel::memory::params_bytes(&w.model, cfg) + extra_static,
                    skeletal_buffers: 0,
                    planned_arena: series.peak_reserved(),
                },
                reorgs: series.reorgs,
            })
        }
    }
}

/// Replay a baseline through the caching allocator the way a real PyTorch
/// job runs: iteration 1 on a fresh allocator, then the optimizer's lazy
/// allocation of persistent gradient/Adam tensors (which land scattered in
/// the cached activation segments and pin them), then a steady-state
/// iteration whose reorganisations and peak are what training actually pays
/// every step. Returns the steady-state snapshot.
fn caching_replay_pass(
    w: &Workload,
    cfg: &ParallelConfig,
    p: &ProfileReport,
    extra_static: u64,
    obs: Option<&mut RunObserver>,
) -> Result<SnapshotSeries, CellOutcome> {
    use memo_alloc::DeviceAllocator as _;
    use memo_model::trace::TensorId;

    let usable = w.calib.usable_gpu_memory();
    let static_bytes = memo_parallel::memory::params_bytes(&w.model, cfg) + extra_static;
    if static_bytes >= usable {
        return Err(CellOutcome::Oom {
            needed: static_bytes,
            capacity: usable,
        });
    }
    let mut alloc = CachingAllocator::new(usable - static_bytes);
    // Record the *steady-state* iteration only — that is the one whose
    // fragmentation behaviour training pays every step (Figure 1a). The
    // recorder stays off through warm-up and the optimizer's lazy
    // allocations; it is enabled just before the steady replay below.

    // Iteration 1 (warm-up).
    let warmup = replay(&mut alloc, &p.trace);
    if let Some(err) = &warmup.oom {
        return Err(replay_oom(err, static_bytes, usable));
    }

    // First optimizer step: grads + Adam states appear, permanently.
    for (k, bytes) in memo_parallel::memory::persistent_tensor_sizes(&w.model, cfg)
        .into_iter()
        .enumerate()
    {
        let id = TensorId((1 << 40) + k as u64);
        if let Err(AllocError::OutOfMemory {
            reserved,
            requested,
            ..
        }) = alloc.malloc(id, bytes)
        {
            return Err(CellOutcome::Oom {
                needed: static_bytes + reserved + requested,
                capacity: usable,
            });
        }
    }
    let reorgs_before_steady = alloc.reorg_count();

    // Steady-state iteration.
    alloc.record_events(obs.is_some());
    let series = replay(&mut alloc, &p.trace);
    if let Some(o) = obs {
        o.alloc_events = alloc.take_events();
    }
    if let Some(err) = &series.oom {
        return Err(replay_oom(err, static_bytes, usable));
    }
    let mut series = series;
    series.reorgs = alloc.reorg_count() - reorgs_before_steady;
    Ok(series)
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
    let ops = p.layers_local * if refwd { 3 } else { 2 } + 4;
    tl.reserve_ops(ops, 0, 0);
    let c = tl.add_stream("compute");
    for i in 0..p.layers_local {
        tl.enqueue_fmt(c, secs(lt.fwd()), format_args!("fwd L{i}"));
    }
    tl.enqueue(c, secs(head_secs), "head");
    for i in (0..p.layers_local).rev() {
        if refwd {
            tl.enqueue_fmt(c, secs(lt.fwd()), format_args!("refwd L{i}"));
        }
        tl.enqueue_fmt(c, secs(lt.bwd), format_args!("bwd L{i}"));
    }
    if stalls > 0.0 {
        tl.enqueue(c, secs(stalls), "reorg stalls");
    }
    tl.enqueue(c, secs(p.optimizer_secs), "optimizer");
    tl.enqueue(c, secs(p.grad_sync_secs), "grad sync");
    tl
}

/// A replay OOM with the static bytes folded into the shortfall. Plan
/// errors (`NotInPlan`/`PlanOverlap`) cannot occur on a caching allocator,
/// but are still reported with real numbers rather than a sentinel.
fn replay_oom(err: &AllocError, static_bytes: u64, usable: u64) -> CellOutcome {
    match *err {
        AllocError::OutOfMemory {
            requested,
            reserved,
            ..
        } => CellOutcome::Oom {
            needed: static_bytes + reserved + requested,
            capacity: usable,
        },
        AllocError::NotInPlan(_) | AllocError::PlanOverlap(_, _) => CellOutcome::Oom {
            needed: static_bytes,
            capacity: usable,
        },
    }
}

/// Map a staging failure into the cell outcome.
fn oohm(e: memo_swap::tiers::OutOfTierMemory) -> CellOutcome {
    CellOutcome::Oohm {
        needed: e.used + e.requested,
        capacity: e.capacity,
    }
}

/// One staging pool per tier the plan touches: the host pool carries its
/// legacy `.max(1)` floor, deeper pools their exact capacity shares.
fn staging_for(w: &Workload, traffic: &TierTrafficList) -> TierStaging {
    let mut capacities = vec![w.calib.host_capacity_per_gpu().max(1)];
    for k in 1..traffic.len() {
        capacities.push(w.calib.tier_capacity_per_gpu(k));
    }
    TierStaging::new(&capacities)
}

/// Stage 4: the iteration seconds, their decomposition, and the host peak.
/// `head_secs` is the stage-scaled head time (the cached [`ProfileReport`]
/// stays pristine so it can be shared across modes). `segment_cache` routes
/// the unobserved swap-family builds through the global
/// [`memo_swap::SegmentCache`] ([`ProfileSource::Pinned`]); cached and
/// uncached builds are bit-identical (the cache key covers every recurrence
/// input).
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
            if obs.is_none() && segment_cache {
                // Delta path: the memoized cursor-only recurrence. No
                // timeline is materialised at all — makespan, busy, idle,
                // and the staging peak come straight off the scalars.
                let s = memo_swap::SegmentCache::global()
                    .schedule_cursor_only(&segments, t_head, &mut staging, slots)
                    .map_err(oohm)?;
                return Ok(finish_swap(
                    s.makespan(),
                    s.compute_busy,
                    s.compute_idle(),
                    staging.host_peak(),
                    recompute,
                ));
            }
            // Unobserved runs — the strategy search's inner loop — take the
            // cursor-only fast path (steady-state layer splicing, no spans);
            // observed runs keep the fully recorded Figure-11 timeline. The
            // two are bit-identical on every metric (swap's differential
            // suite), so the choice is invisible to the outcome.
            let level = if obs.is_some() {
                RecordLevel::Full
            } else {
                RecordLevel::CursorOnly
            };
            let mut sched =
                memo_swap::build_schedule(&segments, t_head, &mut staging, slots, level)
                    .map_err(oohm)?;
            if let Some(o) = obs {
                // The three-stream schedule already *is* a timeline; hand
                // it over instead of letting the pipeline drop it.
                o.timeline = Some(std::mem::take(&mut sched.timeline));
            }
            Ok(finish_swap(
                sched.makespan,
                sched.compute_busy,
                sched.compute_idle,
                sched.host_peak,
                recompute,
            ))
        }
        ActivationPlan::Recompute { refwd } => {
            let layers = p.layers_local as f64;
            // Forward, head, optional re-forward + backward, plus fixed
            // costs and reorganisation stalls — the closed-form baseline.
            let compute = if refwd {
                layers * (2.0 * lt.fwd() + lt.bwd) + head_secs
            } else {
                layers * (lt.fwd() + lt.bwd) + head_secs
            };
            let stalls = mem.reorgs as f64 * w.calib.reorg_penalty_secs;
            let raw = compute * bubble_factor + p.optimizer_secs + p.grad_sync_secs + stalls;
            let derate = if derate {
                w.calib.ds_compute_derate
            } else {
                1.0
            };
            let iter_secs = raw / derate;
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
