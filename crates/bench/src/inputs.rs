//! Cell inputs shared by the workspace differential tests and the
//! `speed_gates` bin, so a gate times exactly the cells a test checks.

use memo_core::session::Workload;
use memo_hal::engine::RecordLevel;
use memo_hal::time::SimTime;
use memo_model::config::ModelConfig;
use memo_model::decode::{generate_decode, DecodeParams, DecodeTrace};
use memo_model::trace::RematPolicy;
use memo_parallel::search;
use memo_parallel::strategy::{ParallelConfig, SystemSpec};
use memo_parallel::sweep::serpentine_pairs;
use memo_swap::reference::ReferenceScheduleOutcome;
use memo_swap::schedule::{
    build_schedule, LayerCosts, LayerSegment, ScheduleOutcome, TierTraffic, TierTrafficList,
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
    let swapped_others = (p.alpha.alpha * p.split.s_others as f64).round() as u64;
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
        slots: 2,
        host_capacity: w.calib.host_capacity_per_gpu().max(1),
    }
}

impl SimInputs {
    /// The schedule on the heap-labelled reference engine.
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

    /// The schedule on the interned engine at `level` (`CursorOnly` may
    /// splice steady-state layers).
    pub fn schedule(&self, level: RecordLevel) -> ScheduleOutcome {
        let mut host = TierStaging::single(self.host_capacity);
        let layout = LayerSegment::uniform(self.n_layers, self.slots, self.costs);
        build_schedule(&layout, self.t_head, &mut host, self.slots, level).expect("host fits")
    }
}

/// α lattice points of the dense MEMO grid.
const GRID_ALPHA_POINTS: usize = 17;

/// The dense MEMO grid of a workload: every Megatron-family strategy, and
/// the serpentine (strategy, α) walk over them, in which the strategy (a
/// new profile and plan) changes only at row boundaries.
#[derive(Debug, Clone)]
pub struct MemoGrid {
    pub configs: Vec<ParallelConfig>,
    pub walk: Vec<(ParallelConfig, f64)>,
}

/// The [`MemoGrid`] of `w` (17 α points from 0 to 1).
pub fn memo_grid(w: &Workload) -> MemoGrid {
    let gpn = w.calib.gpus_per_node.min(w.n_gpus);
    let configs = search::enumerate_configs(SystemSpec::Memo, &w.model, w.n_gpus, gpn);
    let alphas: Vec<f64> = (0..GRID_ALPHA_POINTS)
        .map(|i| i as f64 / (GRID_ALPHA_POINTS - 1) as f64)
        .collect();
    let walk = serpentine_pairs(&configs, &alphas);
    MemoGrid { configs, walk }
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
