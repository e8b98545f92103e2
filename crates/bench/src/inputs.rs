//! Cell inputs shared by the workspace differential tests and the
//! `speed_gates` bin, so a gate times exactly the cells a test checks.

use memo_core::session::Workload;
use memo_hal::time::SimTime;
use memo_model::config::ModelConfig;
use memo_model::decode::{generate_decode, DecodeParams, DecodeTrace};
use memo_model::trace::{IterationTrace, RematPolicy};
use memo_parallel::search;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_swap::alpha::solve_alpha;
use memo_swap::reference::ReferenceScheduleOutcome;
use memo_swap::schedule::{
    build_schedule, build_schedule_scalars, LayerCosts, LayerSegment, ScalarSchedule,
    ScheduleOutcome, TierTraffic, TierTrafficList,
};
use memo_swap::tiers::TierStaging;

/// The swap-schedule builder's arguments for MEMO at one workload.
#[derive(Debug, Clone, Copy)]
pub struct SimInputs {
    n_layers: usize,
    costs: LayerCosts,
    t_head: SimTime,
    buffer_bytes: u64,
    slots: usize,
    host_capacity: u64,
}

/// Derive the builder inputs from a profiled workload, mirroring
/// `ExecutionPipeline::build_schedule`'s token-wise arm.
pub fn sim_inputs(w: &Workload, cfg: &ParallelConfig) -> SimInputs {
    let p = memo_core::profiler::profile(w, cfg, RematPolicy::MemoTokenWise, false);
    let slots = 2;
    let alpha = solve_alpha(&p.alpha_inputs(&w.calib, slots)).alpha;
    let swapped_others = (alpha * p.split.s_others as f64).round() as u64;
    let offload_bytes = p.split.s_input + p.split.s_attn + swapped_others;
    let recompute_fraction = 1.0 - swapped_others as f64 / p.split.s_others.max(1) as f64;
    let mut traffic = TierTrafficList::new();
    traffic.push(TierTraffic {
        bytes: offload_bytes,
        bandwidth: w.calib.effective_pcie(),
        latency_secs: 0.0,
    });
    SimInputs {
        n_layers: p.layers_local,
        costs: LayerCosts {
            t_fwd: SimTime::from_secs_f64(p.layer_time.fwd()),
            t_bwd: SimTime::from_secs_f64(p.layer_time.bwd),
            t_recompute: SimTime::from_secs_f64(
                recompute_fraction * p.layer_time.fwd_without_attention(),
            ),
            traffic,
        },
        t_head: SimTime::from_secs_f64(p.head_secs),
        buffer_bytes: p.split.total(),
        slots,
        host_capacity: w.calib.host_capacity_per_gpu().max(1),
    }
}

impl SimInputs {
    /// The schedule of the verbatim reference builder (`memo_swap::reference`).
    pub fn reference(&self) -> ReferenceScheduleOutcome {
        let mut host = TierStaging::single(self.host_capacity);
        memo_swap::reference::build_iteration_schedule_with_slots(
            self.n_layers,
            self.costs,
            self.t_head,
            &mut host,
            self.buffer_bytes,
            self.slots,
        )
        .expect("host fits")
    }

    /// The schedule recorded by `build_schedule`.
    pub fn schedule(&self) -> ScheduleOutcome {
        let mut host = TierStaging::single(self.host_capacity);
        let layout = LayerSegment::uniform(self.n_layers, self.slots, self.costs);
        build_schedule(&layout, self.t_head, &mut host, self.slots).expect("host fits")
    }

    /// The scalar schedule (steady-state layers spliced) and its host
    /// staging peak.
    pub fn scalars(&self) -> (ScalarSchedule, u64) {
        let mut host = TierStaging::single(self.host_capacity);
        let layout = LayerSegment::uniform(self.n_layers, self.slots, self.costs);
        let s =
            build_schedule_scalars(&layout, self.t_head, &mut host, self.slots).expect("host fits");
        (s, host.host_peak())
    }
}

/// α lattice points of the dense MEMO grid.
const GRID_ALPHA_POINTS: usize = 17;

/// The dense MEMO grid of a workload: every Megatron-family strategy (one
/// row each) crossed with `GRID_ALPHA_POINTS` α points from 0 to 1, the
/// cells `Workload::run_alpha_grid` sweeps row by row.
#[derive(Debug, Clone)]
pub struct MemoGrid {
    pub configs: Vec<ParallelConfig>,
    pub alphas: Vec<f64>,
}

impl MemoGrid {
    /// Every (strategy, α) cell, row by row.
    pub fn cells(&self) -> impl Iterator<Item = (ParallelConfig, f64)> + '_ {
        self.configs
            .iter()
            .flat_map(|&cfg| self.alphas.iter().map(move |&alpha| (cfg, alpha)))
    }
}

/// The [`MemoGrid`] of `w`.
pub fn memo_grid(w: &Workload) -> MemoGrid {
    let gpn = w.calib.gpus_per_node.min(w.n_gpus);
    let configs = search::enumerate_configs(SystemSpec::Memo, &w.model, w.n_gpus, gpn);
    let alphas = (0..GRID_ALPHA_POINTS)
        .map(|i| i as f64 / (GRID_ALPHA_POINTS - 1) as f64)
        .collect();
    MemoGrid { configs, alphas }
}

/// Device KV budget in half sequences: 8 full-context sequences plus half
/// a sequence of headroom, so the paged allocator saturates at 8 and the
/// caching allocator's realloc transient (old + new live at once) caps it
/// strictly lower.
const DEVICE_HALF_SEQS: u64 = 17;

/// Minimum tokens per allocator page (vLLM-style block size). Long
/// contexts scale the block up (`context/1024`) so per-sequence page
/// tables stay bounded; internal fragmentation is at most one page.
const PAGE_TOKENS: u64 = 16;

/// One serving KV cell: a deterministic decode trace and the device it
/// replays on.
#[derive(Debug, Clone)]
pub struct KvCell {
    pub trace: DecodeTrace,
    /// Device KV budget, bytes.
    pub device: u64,
    /// Allocator page, bytes.
    pub page: u64,
}

impl KvCell {
    /// KV bytes per token.
    pub fn kv(&self) -> u64 {
        self.trace.params.kv_bytes_per_token()
    }

    /// Tokens of one full-context sequence.
    pub fn context_tokens(&self) -> u64 {
        self.trace.params.prompt_tokens + self.trace.params.decode_tokens
    }
}

/// The decode cell of `model` at `context` tokens per sequence: a batch of
/// up to 12 sequences fed by 24 arrivals.
pub fn kv_cell(model: ModelConfig, context: u64) -> KvCell {
    let mut params = DecodeParams::cell(model, context, 12, 24);
    // Long-context decode phases are capped so the 256K cells replay in
    // seconds; the KV footprint still reflects the full context.
    params.decode_tokens = params.decode_tokens.min(2048);
    let trace = generate_decode(&params);
    let kv = params.kv_bytes_per_token();
    let context_tokens = params.prompt_tokens + params.decode_tokens;
    KvCell {
        device: DEVICE_HALF_SEQS * context_tokens * kv / 2,
        page: (context_tokens / 1024).max(PAGE_TOKENS) * kv,
        trace,
    }
}

/// The per-GPU traces the caching-replay gate times: 7B on 8 GPUs
/// (TP4·CP2) at {64K, 256K, 1M} tokens under FullRecompute and KeepAll,
/// exactly as `profile` builds them for the Megatron-LM and keep-all
/// searches. `crates/alloc/tests/differential.rs` replays the same traces
/// through both allocators in lockstep.
pub fn replay_traces() -> Vec<IterationTrace> {
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let mut traces = Vec::new();
    for seq_k in [64u64, 256, 1024] {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, seq_k << 10);
        for policy in [RematPolicy::FullRecompute, RematPolicy::KeepAll] {
            traces.push(
                memo_core::profiler::profile(&w, &cfg, policy, false)
                    .trace
                    .into_inner(),
            );
        }
    }
    traces
}
