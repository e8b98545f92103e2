//! Decode-phase (serving) execution: the KV-cache policies head-to-head.
//!
//! The training pipeline has no decode analogue — its five stages
//! profile/plan/schedule one iteration of a fixed batch. Serving instead
//! replays a [`DecodeTrace`] (continuous batching, per-step KV append)
//! against one of four KV-cache policies on a virtual clock:
//!
//! * [`KvCachePolicy::Paged`] — the block-paged allocator
//!   (`memo_alloc::paged`): fragmentation-free, rejects only on true
//!   capacity exhaustion.
//! * [`KvCachePolicy::Caching`] — the PyTorch-style
//!   [`CachingAllocator`] serving the pre-paging realloc pattern; its
//!   fragmentation and reorganisation stalls are the serving-side
//!   Figure 1(a).
//! * [`KvCachePolicy::TokenSwap`] — MEMO's α program applied to KV
//!   (`memo_swap::kv`): an α fraction of token rows streams through host
//!   DRAM each step, overlapped with decode compute.
//! * [`KvCachePolicy::Tiered`] — MemGPT-style paging of whole cold
//!   sequences down the offload chain (host → NVMe → …), each onto the
//!   nearest tier of a [`TierStaging`] with room.
//!
//! A replay holds one state per policy, owned by that policy's arm of an
//! enum: the paged pool, the caching allocator and its tensor ids, the
//! swap leg's resident and host-staged bytes, or the tiered leg's resident
//! bytes and tier chain. Each arm's admission and growth return the
//! refusal they made, and a sequence's state is the only record of where
//! its KV sits. Debug builds check the swap and tiered ledgers against the
//! sequences after every trace event.
//!
//! Everything is deterministic: same workload, same policy, same
//! [`ServingReport`]. `pick_policy` folds the four legs of one trimmed
//! decode cell into the policy a serving tenant should run, and
//! `pick_training` folds a training tenant's strategy grid × α lattice
//! into its MEMO cell — the two answers `memo-serve` gives, both memoized
//! as a [`Pick`] by [`crate::cache::ProfileCache::pick`].

use crate::outcome::CellOutcome;
use crate::pipeline::ExecutionReport;
use crate::session::{pick_best_or_failure, Workload};
use memo_alloc::caching::CachingAllocator;
use memo_alloc::paged::PagedKvAllocator;
use memo_alloc::DeviceAllocator;
use memo_model::decode::{generate_decode, DecodeEvent, DecodeParams, DecodeTrace};
use memo_model::trace::TensorId;
use memo_parallel::search::enumerate_configs;
use memo_parallel::{KvCachePolicy, ParallelConfig, SystemSpec};
use memo_swap::alpha::TierLink;
use memo_swap::kv::{plan_kv_swap, KvSwapInputs};
use memo_swap::TierStaging;

/// Device/host resources a serving run sees, normally derived from a
/// [`Workload`]'s calibration by [`ServingEngine::from_workload`].
#[derive(Debug, Clone)]
pub(crate) struct ServingResources {
    /// Device bytes available to the KV cache (after weights).
    device_kv_bytes: u64,
    /// Page size of the paged policy, bytes.
    page_bytes: u64,
    /// Device peak FLOP/s and the decode-GEMM efficiency against it.
    peak_flops: f64,
    efficiency: f64,
    /// Fixed per-step launch overhead, seconds.
    kernel_launch_secs: f64,
    /// Effective device↔host bandwidth, bytes/s.
    host_bandwidth: f64,
    /// Host DRAM available for swapped/paged KV, bytes.
    host_capacity: u64,
    /// Stall per caching-allocator reorganisation, seconds.
    reorg_penalty_secs: f64,
    /// Offload tiers beyond the host, chain order.
    extra_tiers: Vec<TierLink>,
}

/// Result of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    pub(crate) policy: KvCachePolicy,
    /// Virtual-clock decode steps replayed.
    steps: u64,
    /// Tokens decoded (appends that succeeded).
    tokens_generated: u64,
    /// Largest number of simultaneously live sequences.
    peak_seqs: usize,
    /// Arrivals refused admission.
    pub rejected: usize,
    /// Sequences killed mid-flight when memory ran out under them.
    pub preempted: usize,
    /// The smallest refused arrival or append that outgrew the whole pool
    /// that refused it; the run's failure when it served no token.
    shortfall: Option<Shortfall>,
    /// Cold sequences paged off device (tiered policy only).
    evictions: u64,
    /// Peak device KV bytes resident.
    peak_kv_bytes: u64,
    /// Peak host bytes staged (swap/tiered policies).
    host_peak_bytes: u64,
    /// Caching-allocator reorganisations (caching policy only).
    reorgs: u64,
    /// Largest swapped fraction used (swap/tiered policies).
    alpha: Option<f64>,
    /// Virtual wall time of the run, seconds.
    sim_secs: f64,
    /// Decode throughput: generated tokens per virtual second.
    tokens_per_sec: f64,
    /// Decode FLOPs over `sim_secs · peak_flops`.
    utilization: f64,
}

/// A refused arrival or append that needs more than the whole pool holds:
/// `needed > capacity`, whatever else is resident.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shortfall {
    /// Refused by the host tier (the swap policy's staged rows) rather
    /// than the device KV pool.
    host: bool,
    needed: u64,
    capacity: u64,
}

/// A decode workload bound to resources and a policy.
#[derive(Debug, Clone)]
pub struct ServingEngine {
    params: DecodeParams,
    resources: ServingResources,
    pub(crate) policy: KvCachePolicy,
}

impl ServingEngine {
    pub(crate) fn new(
        params: DecodeParams,
        resources: ServingResources,
        policy: KvCachePolicy,
    ) -> Self {
        ServingEngine {
            params,
            resources,
            policy,
        }
    }

    /// Derive the decode cell and resources from a training [`Workload`]:
    /// fp16 weights resident, the rest of usable device memory given to
    /// KV, batch sized at 2× what fits so the swap policies have work.
    pub fn from_workload(w: &Workload, policy: KvCachePolicy) -> Self {
        let weights = 2 * w.model.params();
        let device_kv = w.calib.usable_gpu_memory().saturating_sub(weights).max(1);
        let params = {
            let mut p = DecodeParams::cell(w.model.clone(), w.seq_len.max(16), 1, 1);
            let fits = (device_kv / p.context_kv_bytes().max(1)).max(1) as usize;
            p.max_batch = (2 * fits).min(64);
            p.arrivals = 3 * p.max_batch;
            p
        };
        // vLLM-style block: 16 tokens per page.
        let page_bytes = 16 * params.kv_bytes_per_token();
        let calib = &w.calib;
        let extra_tiers = (1..calib.hierarchy.len())
            .map(|i| TierLink {
                bandwidth: calib.effective_tier_bandwidth(i),
                capacity: calib.tier_capacity_per_gpu(i),
            })
            .collect();
        ServingEngine::new(
            params,
            ServingResources {
                device_kv_bytes: device_kv,
                page_bytes,
                peak_flops: calib.peak_flops,
                efficiency: calib.gemm_efficiency,
                kernel_launch_secs: calib.kernel_launch_secs,
                host_bandwidth: calib.effective_pcie(),
                host_capacity: calib.host_capacity_per_gpu(),
                reorg_penalty_secs: calib.reorg_penalty_secs,
                extra_tiers,
            },
            policy,
        )
    }

    /// FLOPs one appended token costs for a sequence holding `tokens`:
    /// the weight GEMVs (2·P) plus attention over the KV held.
    fn token_flops(&self, tokens: u64) -> f64 {
        let m = &self.params.model;
        2.0 * m.params() as f64 + 4.0 * (m.hidden * m.n_layers) as f64 * tokens as f64
    }

    /// A nominal full-batch step time for admission-time α solves, so
    /// admission does not depend on the half-built current step.
    fn nominal_step_secs(&self) -> f64 {
        let r = &self.resources;
        let per_token = self.token_flops(self.params.prompt_tokens);
        r.kernel_launch_secs
            + self.params.max_batch as f64 * per_token / (r.peak_flops * r.efficiency)
    }

    /// Replay the decode trace under the policy.
    pub fn run(&self) -> ServingReport {
        let trace = generate_decode(&self.params);
        self.replay(&trace)
    }

    /// Replay a pre-generated trace (benches reuse one trace across legs).
    fn replay(&self, trace: &DecodeTrace) -> ServingReport {
        let mut rt = Replay::new(self, trace);
        rt.run();
        rt.finish()
    }
}

/// Concurrency cap of the decode cell [`pick_policy`] replays. The cell is
/// trimmed so a fleet of requests plans in milliseconds: a small saturated
/// batch (`arrivals = 2 · max_batch`) and a short decode phase (at most
/// [`PICK_DECODE_TOKENS`]) still rank the policies the way the full
/// [`ServingEngine::from_workload`] cell does.
const PICK_MAX_BATCH: usize = 8;

/// Decode-length cap of the [`pick_policy`] cell, tokens.
const PICK_DECODE_TOKENS: u64 = 512;

/// The trimmed decode cell of [`pick_policy`] for `w`, bound to `policy`.
fn pick_cell(w: &Workload, policy: KvCachePolicy) -> ServingEngine {
    let mut eng = ServingEngine::from_workload(w, policy);
    eng.params.max_batch = eng.params.max_batch.min(PICK_MAX_BATCH);
    eng.params.arrivals = 2 * eng.params.max_batch;
    eng.params.decode_tokens = eng.params.decode_tokens.min(PICK_DECODE_TOKENS);
    eng
}

/// The KV-cache policy a serving tenant of `w` should run: every leg of
/// [`KvCachePolicy::ALL`] replays one shared trace of the trimmed decode
/// cell (its parameters do not depend on the policy), and the highest
/// tokens/sec wins. A tie keeps the earlier policy; an infeasible leg
/// scores −∞, so an all-infeasible cell reports the first leg's failure.
///
/// A pure function of `w` — the memoization contract of
/// [`crate::cache::ProfileCache::pick`].
fn pick_policy(w: &Workload) -> CellOutcome {
    let mut eng = pick_cell(w, KvCachePolicy::ALL[0]);
    let trace = generate_decode(&eng.params);
    let mut leg = |policy| {
        eng.policy = policy;
        let rep = eng.replay(&trace);
        let outcome = rep.to_outcome();
        let score = if outcome.is_ok() {
            rep.tokens_per_sec
        } else {
            f64::NEG_INFINITY
        };
        (score, outcome)
    };
    let mut best = leg(KvCachePolicy::ALL[0]);
    for &policy in &KvCachePolicy::ALL[1..] {
        let next = leg(policy);
        if next.0 > best.0 {
            best = next;
        }
    }
    best.1
}

/// α lattice `pick_training` crosses each strategy with.
pub const ALPHA_POINTS: usize = 5;

/// What a tenant runs on its cluster slice: a MEMO strategy grid
/// (training) or a decode-phase KV-cache policy (serving). Selects the
/// pick `pick` makes, and is part of the pick-table key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TenantKind {
    #[default]
    Training,
    Serving,
}

/// A tenant's planning answer: the value `pick` computes and
/// [`crate::cache::ProfileCache::pick`] memoizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Pick {
    /// The winning (strategy, α) cell; `None` for a serving pick or when
    /// the whole grid failed.
    pub picked: Option<(ParallelConfig, f64)>,
    /// Full report of the winning training cell.
    pub(crate) report: Option<ExecutionReport>,
    /// The pick's outcome, or the least-bad failure over the grid.
    pub outcome: CellOutcome,
    /// Cells evaluated: |strategy grid| × [`ALPHA_POINTS`] for training,
    /// the [`KvCachePolicy::ALL`] legs for serving.
    pub grid_cells: usize,
}

/// The MEMO cell a training tenant of `w` should run: every strategy of
/// `enumerate_configs(SystemSpec::Memo, …)` crossed with the
/// [`ALPHA_POINTS`] α lattice (one [`Workload::run_alpha_grid`] row per
/// strategy), folded by [`pick_best_or_failure`] — the pick by TGS, or the
/// least-bad failure.
///
/// A pure function of `w`, like [`pick_policy`].
pub(crate) fn pick_training(w: &Workload) -> Pick {
    let gpn = w.calib.gpus_per_node.min(w.n_gpus);
    let cells: Vec<_> = enumerate_configs(SystemSpec::Memo, &w.model, w.n_gpus, gpn)
        .into_iter()
        .flat_map(|cfg| {
            w.run_alpha_grid(&cfg, ALPHA_POINTS, 2)
                .into_iter()
                .map(move |(alpha, rep)| ((cfg, alpha), rep))
        })
        .collect();
    let (best, outcome) = pick_best_or_failure(&cells, |(_, rep)| &rep.outcome);
    Pick {
        picked: best.map(|(cell, _)| *cell),
        report: best.map(|(_, rep)| rep.clone()),
        outcome,
        grid_cells: cells.len(),
    }
}

/// The pick a `kind` tenant of `w` gets: `pick_training`, or
/// `pick_policy`'s outcome with no strategy cell.
pub(crate) fn pick(w: &Workload, kind: TenantKind) -> Pick {
    match kind {
        TenantKind::Training => pick_training(w),
        TenantKind::Serving => Pick {
            picked: None,
            report: None,
            outcome: pick_policy(w),
            grid_cells: KvCachePolicy::ALL.len(),
        },
    }
}

/// The paged leg's pool: the device KV bytes, capped at the pages the
/// trace can ever hold at once. A sequence holds at most its full length's
/// `⌈bytes / page⌉ ≤ bytes / page + 1` pages, so all of the trace's
/// sequences together hold at most its total KV bytes in pages plus one
/// page per sequence. A pool that large never runs out, so the cap moves
/// no result; it sizes the free bitmap and the `u32` page ids by the
/// trace, not by the device (a 2^34 GiB device is 2^41 pages of a 7B
/// cell). Past `u32::MAX` pages the trace itself would hold billions of
/// append events.
fn paged_pool_bytes(r: &ServingResources, trace: &DecodeTrace) -> u64 {
    let kv_bytes = trace
        .total_tokens()
        .saturating_mul(trace.params.kv_bytes_per_token());
    let trace_pages = kv_bytes
        .div_ceil(r.page_bytes)
        .saturating_add(trace.params.arrivals as u64)
        .max(1);
    (r.device_kv_bytes / r.page_bytes).min(trace_pages) * r.page_bytes
}

/// Per-sequence replay state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SeqState {
    /// KV on device, `bytes` resident.
    Resident { bytes: u64 },
    /// KV paged out to `tier` of the tiered arm's chain: the only record
    /// of what sits where.
    PagedOut { tier: usize, bytes: u64 },
    /// Rejected at arrival or preempted mid-flight; later events skipped.
    Dead,
}

/// `v[i]`, growing `v` with `None` up to it.
fn slot<T: Clone>(v: &mut Vec<Option<T>>, i: u32) -> &mut Option<T> {
    let i = i as usize;
    if v.len() <= i {
        v.resize(i + 1, None);
    }
    &mut v[i]
}

/// The resident sequences' ids and bytes, lowest id (oldest arrival) first.
fn residents(seqs: &[Option<SeqState>]) -> impl DoubleEndedIterator<Item = (u32, u64)> + '_ {
    seqs.iter().enumerate().filter_map(|(i, s)| match s {
        Some(SeqState::Resident { bytes }) => Some((i as u32, *bytes)),
        _ => None,
    })
}

/// One KV-cache policy's state, owned by its arm.
enum Pool {
    /// The block-paged pool; `None` when the device holds less than one
    /// page.
    Paged(Option<PagedKvAllocator>),
    /// The caching allocator serving the realloc pattern (boxed: it is
    /// several times the size of every other arm), each resident
    /// sequence's live tensor, dense by sequence id, and the next fresh id.
    Caching {
        alloc: Box<CachingAllocator>,
        ids: Vec<Option<TensorId>>,
        next: u64,
    },
    /// The α swap's device-resident and host-staged KV bytes.
    TokenSwap { resident: u64, swapped: u64 },
    /// Device-resident KV bytes, the offload chain cold sequences page out
    /// to (0 = host), and the page-outs so far.
    Tiered {
        resident: u64,
        chain: TierStaging,
        evictions: u64,
    },
}

impl Pool {
    fn new(eng: &ServingEngine, trace: &DecodeTrace) -> Self {
        let r = &eng.resources;
        match eng.policy {
            KvCachePolicy::Paged => Pool::Paged(
                (r.device_kv_bytes >= r.page_bytes)
                    .then(|| PagedKvAllocator::new(paged_pool_bytes(r, trace), r.page_bytes)),
            ),
            KvCachePolicy::Caching => Pool::Caching {
                alloc: Box::new(CachingAllocator::new(r.device_kv_bytes)),
                ids: Vec::new(),
                next: 0,
            },
            KvCachePolicy::TokenSwap => Pool::TokenSwap {
                resident: 0,
                swapped: 0,
            },
            KvCachePolicy::Tiered => {
                let mut caps = vec![r.host_capacity];
                caps.extend(r.extra_tiers.iter().map(|t| t.capacity));
                Pool::Tiered {
                    resident: 0,
                    chain: TierStaging::new(&caps),
                    evictions: 0,
                }
            }
        }
    }

    /// Device KV bytes in use, capped at the device under the swap arm.
    fn device_bytes(&self, device_kv_bytes: u64) -> u64 {
        match self {
            Pool::Paged(pool) => pool
                .as_ref()
                .map_or(0, |a| a.pages_in_use() * a.page_bytes()),
            Pool::Caching { alloc, .. } => alloc.allocated_bytes(),
            Pool::TokenSwap { resident, .. } => (*resident).min(device_kv_bytes),
            Pool::Tiered { resident, .. } => *resident,
        }
    }

    /// Return a resident sequence's `bytes` of KV.
    fn release(&mut self, seq: u32, bytes: u64) {
        match self {
            // A resident sequence was admitted, so the release succeeds.
            Pool::Paged(pool) => {
                if let Some(a) = pool {
                    let _ = a.release(seq);
                }
            }
            Pool::Caching { alloc, ids, .. } => {
                if let Some(id) = slot(ids, seq).take() {
                    alloc.free(id);
                }
            }
            Pool::TokenSwap { resident, swapped } => {
                // After step-end rebalancing part of the rows may sit in
                // the host pool: drain device first, then the host-staged
                // remainder.
                let from_resident = bytes.min(*resident);
                *resident -= from_resident;
                *swapped -= (bytes - from_resident).min(*swapped);
            }
            Pool::Tiered { resident, .. } => *resident -= bytes,
        }
    }
}

/// Page the coldest resident sequences other than `asking` out, each onto
/// the nearest tier of `chain` with room, until `resident` is at most
/// `limit`. False when no resident sequence or no tier is left to take one.
fn page_out(
    seqs: &mut [Option<SeqState>],
    asking: u32,
    resident: &mut u64,
    limit: u64,
    chain: &mut TierStaging,
    evictions: &mut u64,
) -> bool {
    while *resident > limit {
        let Some((victim, bytes)) = residents(seqs).find(|&(s, _)| s != asking) else {
            return false;
        };
        let Some(tier) = (0..chain.tiers()).find(|&t| chain.reserve_on(t, bytes).is_ok()) else {
            return false;
        };
        seqs[victim as usize] = Some(SeqState::PagedOut { tier, bytes });
        *resident -= bytes;
        *evictions += 1;
    }
    true
}

struct Replay<'a> {
    eng: &'a ServingEngine,
    trace: &'a DecodeTrace,
    kv_per_token: u64,
    seqs: Vec<Option<SeqState>>,
    live: usize,
    pool: Pool,
    // Accounting.
    step_flops: f64,
    total_flops: f64,
    sim_secs: f64,
    steps: u64,
    tokens_generated: u64,
    peak_seqs: usize,
    rejected: usize,
    preempted: usize,
    shortfall: Option<Shortfall>,
    peak_kv: u64,
    host_peak: u64,
    alpha_used: f64,
}

impl<'a> Replay<'a> {
    fn new(eng: &'a ServingEngine, trace: &'a DecodeTrace) -> Self {
        let r = &eng.resources;
        let pool = Pool::new(eng, trace);
        // A device pool below one page holds no page: the paged leg admits
        // nothing, and one page is the smallest request it refuses.
        let shortfall = matches!(pool, Pool::Paged(None)).then_some(Shortfall {
            host: false,
            needed: r.page_bytes,
            capacity: r.device_kv_bytes,
        });
        Replay {
            eng,
            trace,
            kv_per_token: eng.params.kv_bytes_per_token(),
            seqs: Vec::new(),
            live: 0,
            pool,
            step_flops: 0.0,
            total_flops: 0.0,
            sim_secs: 0.0,
            steps: 0,
            tokens_generated: 0,
            peak_seqs: 0,
            rejected: 0,
            preempted: 0,
            shortfall,
            peak_kv: 0,
            host_peak: 0,
            alpha_used: 0.0,
        }
    }

    fn note_live(&mut self, delta: i64) {
        self.live = (self.live as i64 + delta) as usize;
        self.peak_seqs = self.peak_seqs.max(self.live);
    }

    fn run(&mut self) {
        let trace = self.trace;
        for &ev in &trace.events {
            self.event(ev);
        }
    }

    fn event(&mut self, ev: DecodeEvent) {
        match ev {
            DecodeEvent::Arrive { seq, prompt_tokens } => self.arrive(seq, prompt_tokens),
            DecodeEvent::Append { seq } => self.append(seq),
            DecodeEvent::Depart { seq } => self.depart(seq),
            DecodeEvent::StepEnd => self.step_end(),
        }
        let device = self.pool.device_bytes(self.eng.resources.device_kv_bytes);
        self.peak_kv = self.peak_kv.max(device);
        self.check_ledger();
    }

    /// Debug builds check the policy's byte ledger after every trace event:
    /// the swap arm's device and host bytes, and the tiered arm's device
    /// bytes, each sum to the bytes of the resident sequences, and every
    /// chain tier holds exactly the bytes paged out onto it.
    fn check_ledger(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let held = || residents(&self.seqs).map(|(_, bytes)| bytes).sum::<u64>();
        match &self.pool {
            Pool::Paged(_) | Pool::Caching { .. } => {}
            Pool::TokenSwap { resident, swapped } => {
                assert_eq!(resident + swapped, held(), "token-swap KV ledger");
            }
            Pool::Tiered {
                resident, chain, ..
            } => {
                assert_eq!(*resident, held(), "tiered device KV ledger");
                let mut placed = vec![0; chain.tiers()];
                for s in self.seqs.iter().flatten() {
                    if let SeqState::PagedOut { tier, bytes } = *s {
                        placed[tier] += bytes;
                    }
                }
                for (tier, bytes) in placed.into_iter().enumerate() {
                    assert_eq!(chain.used(tier), bytes, "tier {tier} KV ledger");
                }
            }
        }
    }

    fn arrive(&mut self, seq: u32, prompt_tokens: u64) {
        let bytes = prompt_tokens * self.kv_per_token;
        if slot(&mut self.seqs, seq).is_some() {
            // A malformed trace: `generate_decode` arrives each id once.
            panic!("decode trace: sequence {seq} arrives twice");
        }
        let state = match self.reserve(seq, 0, bytes, true) {
            Ok(()) => {
                self.note_live(1);
                let flops = self.eng.token_flops(prompt_tokens / 2);
                self.step_flops += prompt_tokens as f64 * flops;
                SeqState::Resident { bytes }
            }
            Err(refusal) => {
                self.rejected += 1;
                self.note_refusal(refusal);
                SeqState::Dead
            }
        };
        self.seqs[seq as usize] = Some(state);
    }

    /// Grow `seq`, holding `held` bytes (none when `arriving`), by `add`
    /// bytes, or return the refusal: whole pages under paging, the old and
    /// the new tensor at once under the caching leg's realloc pattern, the
    /// α plan's host bytes when the swap leg admits, and the grown sequence
    /// on the tiered leg's device.
    fn reserve(&mut self, seq: u32, held: u64, add: u64, arriving: bool) -> Result<(), Shortfall> {
        let eng = self.eng;
        let r = &eng.resources;
        let grown = held + add;
        let device = |needed| {
            Err(Shortfall {
                host: false,
                needed,
                capacity: r.device_kv_bytes,
            })
        };
        match &mut self.pool {
            // `arrive` admits each id once, so only a full pool refuses; an
            // arrival it refuses is released again.
            Pool::Paged(pool) => {
                let refused = pool.as_mut().is_none_or(|a| {
                    let admitted = if arriving { a.admit(seq) } else { Ok(()) };
                    let refused = admitted.and_then(|()| a.append_bytes(seq, add)).is_err();
                    if refused && arriving {
                        let _ = a.release(seq);
                    }
                    refused
                });
                if refused {
                    return device(grown.div_ceil(r.page_bytes).saturating_mul(r.page_bytes));
                }
            }
            Pool::Caching { alloc, ids, next } => {
                // Realloc pattern: new tensor first, then free the old one.
                let id = TensorId(*next);
                *next += 1;
                if alloc.malloc(id, grown).is_err() {
                    return device(held + grown);
                }
                if let Some(old) = slot(ids, seq).replace(id) {
                    alloc.free(old);
                }
            }
            Pool::TokenSwap { resident, swapped } => {
                // Admit as long as the host can hold the swapped rows.
                // Overlap infeasibility is a throughput hit, not an OOM:
                // decode turns bandwidth-bound (the FlexGen regime) and
                // `step_end` charges the exposed transfer time.
                if arriving {
                    let plan = plan_kv_swap(&KvSwapInputs {
                        total_kv_bytes: *resident + *swapped + add,
                        device_kv_bytes: r.device_kv_bytes,
                        step_compute_secs: eng.nominal_step_secs(),
                        host_bandwidth: r.host_bandwidth,
                    });
                    if plan.host_bytes > r.host_capacity {
                        return Err(Shortfall {
                            host: true,
                            needed: plan.host_bytes,
                            capacity: r.host_capacity,
                        });
                    }
                }
                *resident += add;
            }
            Pool::Tiered {
                resident,
                chain,
                evictions,
            } => {
                let room = r.device_kv_bytes.checked_sub(add).is_some_and(|limit| {
                    page_out(&mut self.seqs, seq, resident, limit, chain, evictions)
                });
                if !room {
                    return device(grown);
                }
                *resident += add;
            }
        }
        Ok(())
    }

    /// Keep the smallest refused request that exceeds the whole pool that
    /// refused it: the run's failure if it serves no token.
    fn note_refusal(&mut self, refusal: Shortfall) {
        if refusal.needed > refusal.capacity
            && self.shortfall.is_none_or(|s| refusal.needed < s.needed)
        {
            self.shortfall = Some(refusal);
        }
    }

    fn append(&mut self, seq: u32) {
        let kv = self.kv_per_token;
        let Some(state) = *slot(&mut self.seqs, seq) else {
            // A malformed trace: a sequence's appends follow its arrival.
            panic!("decode trace: sequence {seq} appends before it arrives");
        };
        match state {
            SeqState::Dead => (),
            SeqState::PagedOut { tier, bytes } => {
                // Its decode appends land on its tier.
                let grown = match &mut self.pool {
                    Pool::Tiered { chain, .. } => chain.reserve_on(tier, kv).is_ok(),
                    _ => false,
                };
                if grown {
                    self.seqs[seq as usize] = Some(SeqState::PagedOut {
                        tier,
                        bytes: bytes + kv,
                    });
                    self.decode_token(bytes / kv);
                } else {
                    self.preempt(seq, state);
                }
            }
            SeqState::Resident { bytes } => match self.reserve(seq, bytes, kv, false) {
                Ok(()) => {
                    self.seqs[seq as usize] = Some(SeqState::Resident { bytes: bytes + kv });
                    self.decode_token(bytes / kv);
                }
                Err(refusal) => {
                    self.note_refusal(refusal);
                    self.preempt(seq, state);
                }
            },
        }
    }

    fn decode_token(&mut self, tokens_held: u64) {
        self.step_flops += self.eng.token_flops(tokens_held);
        self.tokens_generated += 1;
    }

    /// Return the KV `seq` holds in `state` and mark it dead.
    fn retire(&mut self, seq: u32, state: SeqState) {
        match (state, &mut self.pool) {
            (SeqState::Dead, _) => return,
            (SeqState::Resident { bytes }, pool) => pool.release(seq, bytes),
            // Only the tiered arm pages a sequence out, onto its chain.
            (SeqState::PagedOut { tier, bytes }, Pool::Tiered { chain, .. }) => {
                chain.release_on(tier, bytes)
            }
            (SeqState::PagedOut { .. }, _) => {}
        }
        self.seqs[seq as usize] = Some(SeqState::Dead);
        self.note_live(-1);
    }

    /// Kill a live sequence mid-flight: memory ran out under it.
    fn preempt(&mut self, seq: u32, state: SeqState) {
        self.retire(seq, state);
        self.preempted += 1;
    }

    fn depart(&mut self, seq: u32) {
        let Some(state) = *slot(&mut self.seqs, seq) else {
            // A malformed trace: a sequence departs after its arrival.
            panic!("decode trace: sequence {seq} departs before it arrives");
        };
        self.retire(seq, state);
    }

    /// Pure compute time of the step just accumulated.
    fn step_compute_secs(&self) -> f64 {
        let r = &self.eng.resources;
        r.kernel_launch_secs + self.step_flops / (r.peak_flops * r.efficiency)
    }

    fn step_end(&mut self) {
        let eng = self.eng;
        let r = &eng.resources;
        let compute = self.step_compute_secs();
        let overhead = loop {
            break match &mut self.pool {
                Pool::Paged(_) | Pool::Caching { .. } => 0.0,
                Pool::TokenSwap { resident, swapped } => {
                    // Appends may have grown the pool past what the host
                    // can absorb; shed the youngest sequences first (they
                    // have the least prefill investment).
                    let total = *resident + *swapped;
                    let plan = plan_kv_swap(&KvSwapInputs {
                        total_kv_bytes: total,
                        device_kv_bytes: r.device_kv_bytes,
                        step_compute_secs: compute,
                        host_bandwidth: r.host_bandwidth,
                    });
                    let shed = (plan.host_bytes > r.host_capacity)
                        .then(|| residents(&self.seqs).next_back())
                        .flatten();
                    if let Some((victim, bytes)) = shed {
                        self.preempt(victim, SeqState::Resident { bytes });
                        continue;
                    }
                    // Rebalance the split to the solved α.
                    *swapped = plan.host_bytes.min(total);
                    *resident = total - *swapped;
                    self.alpha_used = self.alpha_used.max(plan.alpha_needed);
                    self.host_peak = self.host_peak.max(plan.host_bytes);
                    plan.step_overhead_secs
                }
                Pool::Tiered {
                    resident, chain, ..
                } => {
                    // Paged-out live sequences stream their KV through
                    // their tier's link every step; charge what compute
                    // cannot hide.
                    let mut transfer = 0.0f64;
                    let mut needed = 0u64;
                    for s in self.seqs.iter().flatten() {
                        if let SeqState::PagedOut { tier, bytes } = *s {
                            let bw = if tier == 0 {
                                r.host_bandwidth
                            } else {
                                r.extra_tiers[tier - 1].bandwidth
                            };
                            if bw > 0.0 {
                                transfer += bytes as f64 / bw;
                            }
                            needed += bytes;
                        }
                    }
                    let total = *resident + needed;
                    if total > 0 {
                        self.alpha_used = self.alpha_used.max(needed as f64 / total as f64);
                    }
                    self.host_peak = self.host_peak.max(chain.host_peak());
                    (transfer - compute).max(0.0)
                }
            };
        };
        self.sim_secs += compute + overhead;
        self.total_flops += self.step_flops;
        self.step_flops = 0.0;
        self.steps += 1;
    }

    fn finish(self) -> ServingReport {
        let r = &self.eng.resources;
        let (reorgs, evictions, host_peak, alpha) = match &self.pool {
            Pool::Paged(_) => (0, 0, self.host_peak, None),
            Pool::Caching { alloc, .. } => (alloc.reorg_count(), 0, self.host_peak, None),
            Pool::TokenSwap { .. } => (0, 0, self.host_peak, Some(self.alpha_used)),
            Pool::Tiered {
                chain, evictions, ..
            } => (
                0,
                *evictions,
                chain.host_peak().max(self.host_peak),
                Some(self.alpha_used),
            ),
        };
        let sim_secs = self.sim_secs + reorgs as f64 * r.reorg_penalty_secs;
        ServingReport {
            policy: self.eng.policy,
            steps: self.steps,
            tokens_generated: self.tokens_generated,
            peak_seqs: self.peak_seqs,
            rejected: self.rejected,
            preempted: self.preempted,
            shortfall: self.shortfall,
            evictions,
            peak_kv_bytes: self.peak_kv,
            host_peak_bytes: host_peak,
            reorgs,
            alpha,
            sim_secs,
            tokens_per_sec: if sim_secs > 0.0 {
                self.tokens_generated as f64 / sim_secs
            } else {
                0.0
            },
            utilization: if sim_secs > 0.0 {
                self.total_flops / (sim_secs * r.peak_flops)
            } else {
                0.0
            },
        }
    }
}

impl ServingReport {
    /// Map the serving run onto the training-report vocabulary so the
    /// CLI and `memo-serve` reuse one outcome type: tokens/sec → TGS,
    /// decode utilization → MFU, device KV peak → GPU peak.
    ///
    /// A run that served no token fails with its smallest refused request
    /// that exceeds the whole pool: `X_oom` against the device KV bytes
    /// when the device pool refused it, `X_oohm` against the host tier when
    /// the host did.
    pub fn to_outcome(&self) -> crate::outcome::CellOutcome {
        use crate::outcome::CellOutcome;
        if let (0, Some(s)) = (self.tokens_generated, self.shortfall) {
            let (needed, capacity) = (s.needed, s.capacity);
            return if s.host {
                CellOutcome::Oohm { needed, capacity }
            } else {
                CellOutcome::Oom { needed, capacity }
            };
        }
        if self.sim_secs <= 0.0 || !self.sim_secs.is_finite() {
            return CellOutcome::Degenerate {
                iter_secs: self.sim_secs,
            };
        }
        CellOutcome::Ok(crate::metrics::Metrics {
            iter_secs: self.sim_secs,
            mfu: self.utilization,
            tgs: self.tokens_per_sec,
            peak_gpu_bytes: self.peak_kv_bytes,
            host_peak_bytes: self.host_peak_bytes,
            reorgs: self.reorgs,
            alpha: self.alpha,
            strategy: format!("serve-{}", self.policy.name()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_model::config::{DType, ModelConfig};

    fn tiny_params(max_batch: usize, arrivals: usize) -> DecodeParams {
        DecodeParams {
            model: ModelConfig::tiny(4, 64, 4, 256),
            dtype: DType::F16,
            prompt_tokens: 64,
            decode_tokens: 32,
            max_batch,
            arrivals,
            seed: 7,
        }
    }

    fn resources(device_kv: u64) -> ServingResources {
        ServingResources {
            device_kv_bytes: device_kv,
            page_bytes: 16 * 2 * 64 * 2 * 4, // 16 tokens
            peak_flops: 1e12,
            efficiency: 0.5,
            kernel_launch_secs: 10e-6,
            host_bandwidth: 100e9,
            host_capacity: 1 << 30,
            reorg_penalty_secs: 0.05,
            extra_tiers: vec![],
        }
    }

    fn kv_token() -> u64 {
        // tiny(4,64,..) fp16: 2·64·2·4
        2 * 64 * 2 * 4
    }

    #[test]
    fn ample_memory_serves_everything_identically_across_policies() {
        let params = tiny_params(4, 12);
        let device = 1 << 24; // plenty
        let mut reports = Vec::new();
        for policy in KvCachePolicy::ALL {
            let eng = ServingEngine::new(params.clone(), resources(device), policy);
            let rep = eng.run();
            assert_eq!(rep.rejected, 0, "{policy:?}");
            assert_eq!(rep.preempted, 0, "{policy:?}");
            assert_eq!(rep.peak_seqs, 4, "{policy:?}");
            assert!(rep.tokens_per_sec > 0.0);
            reports.push(rep);
        }
        // Same trace, same tokens out.
        for r in &reports[1..] {
            assert_eq!(r.tokens_generated, reports[0].tokens_generated);
            assert_eq!(r.steps, reports[0].steps);
        }
    }

    #[test]
    fn deterministic_replay() {
        let params = tiny_params(3, 9);
        let eng = ServingEngine::new(params, resources(1 << 22), KvCachePolicy::Paged);
        assert_eq!(eng.run(), eng.run());
    }

    #[test]
    fn tight_memory_caps_concurrency_without_swap() {
        // Room for ~2 full sequences: paged/caching must reject or
        // preempt, token-swap rides the α program through the host.
        let device = 3 * 96 * kv_token(); // ~3 jittered sequences
        let params = tiny_params(6, 12);
        let paged =
            ServingEngine::new(params.clone(), resources(device), KvCachePolicy::Paged).run();
        assert!(paged.rejected + paged.preempted > 0);
        let swap =
            ServingEngine::new(params.clone(), resources(device), KvCachePolicy::TokenSwap).run();
        assert_eq!(
            swap.rejected + swap.preempted,
            0,
            "α swap absorbs the spill"
        );
        assert!(swap.alpha.unwrap() > 0.0);
        assert!(swap.host_peak_bytes > 0);
        // The swap leg pays for it in virtual time per token at worst —
        // but never loses sequences.
        assert!(swap.peak_seqs >= paged.peak_seqs);
    }

    #[test]
    fn tiered_pages_cold_sequences_out() {
        let device = 2 * 96 * kv_token();
        let params = tiny_params(5, 10);
        let rep = ServingEngine::new(params, resources(device), KvCachePolicy::Tiered).run();
        assert!(rep.evictions > 0, "cold sequences must page out");
        assert_eq!(rep.rejected, 0);
        assert!(rep.host_peak_bytes > 0);
        assert!(rep.alpha.unwrap() > 0.0);
        assert!(rep.peak_kv_bytes <= device);
    }

    #[test]
    fn caching_realloc_pattern_never_beats_paging() {
        let device = 4 * 96 * kv_token();
        let params = tiny_params(8, 24);
        let caching =
            ServingEngine::new(params.clone(), resources(device), KvCachePolicy::Caching).run();
        let paged = ServingEngine::new(params, resources(device), KvCachePolicy::Paged).run();
        // The realloc pattern needs old+new live per append: strictly
        // more footprint, so it can never serve more than paging does.
        assert!(caching.tokens_generated <= paged.tokens_generated);
        assert!(caching.peak_seqs <= paged.peak_seqs);
    }

    #[test]
    fn from_workload_builds_a_saturating_cell() {
        let w = Workload::new(ModelConfig::gpt_7b(), 8, 16 << 10);
        let eng = ServingEngine::from_workload(&w, KvCachePolicy::Paged);
        assert!(eng.resources.device_kv_bytes > 0);
        assert!(eng.params.max_batch >= 1);
        assert_eq!(
            eng.resources.page_bytes,
            16 * eng.params.kv_bytes_per_token()
        );
        let rep = eng.run();
        assert!(rep.tokens_per_sec > 0.0);
        let outcome = rep.to_outcome();
        assert!(outcome.is_ok());
    }

    /// Cells that serve no token, 7B on 8 GPUs: every leg at 256K (token-swap
    /// still serves there), token-swap at 768K, which admit no sequence,
    /// and caching at 128K, whose one admitted sequence cannot grow by a
    /// token under the realloc pattern. None may read `Ok` with zero
    /// tokens, and every failure must be a shortfall against the pool that
    /// refused: the device KV bytes for `X_oom`, the host tier for `X_oohm`.
    #[test]
    fn cells_that_serve_no_token_fail_with_a_real_shortfall() {
        let cells = KvCachePolicy::ALL
            .into_iter()
            .map(|policy| (policy, 256u64))
            .chain([
                (KvCachePolicy::TokenSwap, 768),
                (KvCachePolicy::Caching, 128),
            ]);
        let mut failures = 0;
        for (policy, k) in cells {
            let w = Workload::new(ModelConfig::gpt_7b(), 8, k << 10);
            let eng = ServingEngine::from_workload(&w, policy);
            let rep = eng.run();
            let cell = format!("{} at {k}K", policy.name());
            match rep.to_outcome() {
                CellOutcome::Ok(_) => {
                    assert!(rep.tokens_generated > 0, "{cell}: ok with zero tokens")
                }
                CellOutcome::Oom { needed, capacity } => {
                    assert_eq!(capacity, eng.resources.device_kv_bytes, "{cell}");
                    assert!(needed > capacity, "{cell}: {needed} <= {capacity}");
                    assert_eq!(rep.tokens_generated, 0, "{cell}");
                    failures += 1;
                }
                CellOutcome::Oohm { needed, capacity } => {
                    assert_eq!(capacity, eng.resources.host_capacity, "{cell}");
                    assert!(needed > capacity, "{cell}: {needed} <= {capacity}");
                    assert_eq!(rep.tokens_generated, 0, "{cell}");
                    failures += 1;
                }
                other => panic!("{cell}: unexpected {other:?}"),
            }
        }
        assert_eq!(
            failures, 5,
            "all but token-swap at 256K, and both other cells"
        );
    }

    #[test]
    fn weights_that_leave_no_kv_page_fail_typed() {
        // 65B's fp16 weights fill an 8-GPU device, so the KV pool is below
        // one page: the paged leg refuses one page, the caching and tiered
        // legs their smallest arrival, and none panics. Token swap stages
        // every row on the host and still serves.
        let w = Workload::new(ModelConfig::gpt_65b(), 8, 64 << 10);
        for policy in KvCachePolicy::ALL {
            let eng = ServingEngine::from_workload(&w, policy);
            let r = &eng.resources;
            assert!(r.device_kv_bytes < r.page_bytes, "the pool holds a page");
            let rep = eng.run();
            let outcome = rep.to_outcome();
            match policy {
                KvCachePolicy::Paged => assert_eq!(
                    outcome,
                    CellOutcome::Oom {
                        needed: r.page_bytes,
                        capacity: r.device_kv_bytes,
                    }
                ),
                KvCachePolicy::Caching | KvCachePolicy::Tiered => match outcome {
                    CellOutcome::Oom { needed, capacity } => {
                        assert_eq!(capacity, r.device_kv_bytes, "{policy:?}");
                        assert!(needed > capacity, "{policy:?}: {needed} <= {capacity}");
                    }
                    other => panic!("{policy:?}: unexpected {other:?}"),
                },
                KvCachePolicy::TokenSwap => {
                    assert!(outcome.is_ok(), "{policy:?}: {outcome:?}");
                    assert!(rep.tokens_generated > 0);
                }
            }
            if !outcome.is_ok() {
                assert_eq!(rep.tokens_generated, 0, "{policy:?}");
            }
        }
    }

    /// Capping the paged pool at the trace's pages moves no serving cell:
    /// over the paper's models, two GPU counts, two contexts and three
    /// device sizes (two of them far more than a trace can fill, where the
    /// cap binds), the capped replay reports exactly what a replay over the
    /// whole device pool does.
    #[test]
    fn capping_the_paged_pool_at_the_traces_pages_moves_no_cell() {
        let mut capped = 0;
        for model in [
            ModelConfig::gpt_7b(),
            ModelConfig::gpt_13b(),
            ModelConfig::gpt_30b(),
            ModelConfig::gpt_65b(),
        ] {
            for (gpus, seq) in [(8, 16 << 10), (64, 16 << 10), (8, 64 << 10)] {
                for gpu_mem_gib in [None, Some(1u64 << 10), Some(1 << 14)] {
                    let mut w = Workload::new(model.clone(), gpus, seq);
                    if let Some(gib) = gpu_mem_gib {
                        w.calib.gpu_memory_bytes = gib << 30;
                    }
                    let eng = ServingEngine::from_workload(&w, KvCachePolicy::Paged);
                    let r = &eng.resources;
                    if r.device_kv_bytes < r.page_bytes {
                        continue;
                    }
                    let cell = format!(
                        "{} {gpus} GPUs {seq} tokens {gpu_mem_gib:?} GiB",
                        model.name
                    );
                    let trace = generate_decode(&eng.params);
                    let mut whole = Replay::new(&eng, &trace);
                    let device_pages = r.device_kv_bytes / r.page_bytes;
                    let Pool::Paged(Some(pool)) = &whole.pool else {
                        panic!("{cell}: a pool of pages");
                    };
                    capped += usize::from(pool.total_pages() < device_pages);
                    let uncapped = PagedKvAllocator::new(r.device_kv_bytes, r.page_bytes);
                    whole.pool = Pool::Paged(Some(uncapped));
                    whole.run();
                    assert_eq!(whole.finish(), eng.replay(&trace), "{cell}");
                }
            }
        }
        assert!(capped >= 8, "the cap bound in {capped} cells");
    }

    /// `--gpu-mem-gib 17179869183`, the largest whole GiB count whose
    /// bytes fit `u64`: every policy serves a 7B cell, the paged leg over
    /// a pool sized by its trace instead of 2^41 `u32`-numbered pages. (The
    /// context is 4K because the caching leg's replay grows quadratically
    /// with it on so large a device: 64K takes ~10 s optimised.)
    #[test]
    fn a_device_of_2_pow_34_gib_serves_on_every_policy() {
        let mut w = Workload::new(ModelConfig::gpt_7b(), 8, 4 << 10);
        w.calib.gpu_memory_bytes = 17_179_869_183 << 30;
        for policy in KvCachePolicy::ALL {
            let eng = ServingEngine::from_workload(&w, policy);
            let rep = eng.run();
            assert!(rep.to_outcome().is_ok(), "{policy:?}: {rep:?}");
            assert!(rep.tokens_generated > 0 && rep.rejected + rep.preempted == 0);
        }
        let eng = ServingEngine::from_workload(&w, KvCachePolicy::Paged);
        let trace = generate_decode(&eng.params);
        let Pool::Paged(Some(pool)) = Replay::new(&eng, &trace).pool else {
            panic!("a pool of pages");
        };
        assert!(pool.total_pages() <= u64::from(u32::MAX));
    }

    /// The pick before the trace was shared: one `run()` per leg, each
    /// generating its own trace, folded by tokens/sec with a strict `>`.
    /// Returns the pick and every leg's report.
    fn four_run_oracle(w: &Workload) -> (CellOutcome, Vec<ServingReport>) {
        let mut best: Option<(f64, CellOutcome)> = None;
        let mut reports = Vec::new();
        for policy in KvCachePolicy::ALL {
            let rep = pick_cell(w, policy).run();
            let outcome = rep.to_outcome();
            let score = if outcome.is_ok() {
                rep.tokens_per_sec
            } else {
                f64::NEG_INFINITY
            };
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, outcome));
            }
            reports.push(rep);
        }
        (best.unwrap().1, reports)
    }

    #[test]
    fn pick_policy_matches_the_four_run_oracle() {
        let mut starved = 0;
        let mut picks = Vec::new();
        for model in [ModelConfig::gpt_7b(), ModelConfig::gpt_13b()] {
            for gpus in [4, 8] {
                for k in [64u64, 128, 256] {
                    for gib in [1u64, 4, 16, 64, 256, 1024] {
                        let mut w = Workload::new(model.clone(), gpus, k << 10);
                        w.calib.set_host_memory_bytes(gib << 30);
                        let (oracle, legs) = four_run_oracle(&w);
                        let picked = pick_policy(&w);
                        assert_eq!(
                            picked, oracle,
                            "{} / {gpus} GPUs / {k}K / {gib} GiB",
                            model.name
                        );
                        // Token-swap or tiered serving no token at all: the
                        // host budget (or the tier chain) cannot hold a
                        // single sequence.
                        starved += usize::from(legs.iter().any(|r| {
                            matches!(r.policy, KvCachePolicy::TokenSwap | KvCachePolicy::Tiered)
                                && r.tokens_generated == 0
                        }));
                        let name = picked.metrics().map(|m| m.strategy.clone());
                        if !picks.contains(&name) {
                            picks.push(name);
                        }
                    }
                }
            }
        }
        assert!(starved > 0, "the grid must reach starved swap/tiered legs");
        assert!(picks.len() >= 2, "the grid must move the pick: {picks:?}");
    }

    /// FNV-1a over the `Debug` text of `reports`, in order.
    fn digest(reports: &[ServingReport]) -> u64 {
        reports
            .iter()
            .flat_map(|r| format!("{r:?}").into_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// A tiered cell whose host tier holds about one full sequence and
    /// which has no deeper tier, so paging out runs the chain dry.
    fn one_sequence_host_cell() -> ServingEngine {
        let mut r = resources(2 * 96 * kv_token());
        r.host_capacity = 96 * kv_token();
        ServingEngine::new(tiny_params(5, 10), r, KvCachePolicy::Tiered)
    }

    /// The tiered arm pages the coldest sequence out onto the nearest tier
    /// with room, spills to the next tier when the host is full, grows a
    /// paged-out sequence on its own tier, and preempts one whose tier is
    /// full.
    #[test]
    fn tiered_arm_places_nearest_first_and_spills() {
        let seq_bytes = 64 * kv_token();
        let mut r = resources(seq_bytes);
        r.host_capacity = 2 * seq_bytes;
        r.extra_tiers = vec![TierLink {
            bandwidth: 1e9,
            capacity: 10 * seq_bytes,
        }];
        let eng = ServingEngine::new(tiny_params(1, 4), r, KvCachePolicy::Tiered);
        let trace = generate_decode(&eng.params);
        let mut rt = Replay::new(&eng, &trace);
        for seq in 0..4 {
            rt.event(DecodeEvent::Arrive {
                seq,
                prompt_tokens: 64,
            });
        }
        let paged_out = |tier, bytes| Some(SeqState::PagedOut { tier, bytes });
        assert_eq!(
            rt.seqs,
            [
                paged_out(0, seq_bytes),
                paged_out(0, seq_bytes), // the host is now full
                paged_out(1, seq_bytes), // so the third spills to tier 1
                Some(SeqState::Resident { bytes: seq_bytes }),
            ]
        );
        let chain = |rt: &Replay| match &rt.pool {
            Pool::Tiered {
                chain, evictions, ..
            } => (chain.used(0), chain.used(1), chain.host_peak(), *evictions),
            _ => panic!("a tiered pool"),
        };
        assert_eq!(chain(&rt), (2 * seq_bytes, seq_bytes, 2 * seq_bytes, 3));

        // Appends accrue on the sequence's own tier.
        rt.event(DecodeEvent::Append { seq: 2 });
        assert_eq!(rt.seqs[2], paged_out(1, seq_bytes + kv_token()));
        // Host-resident seq 0 cannot grow: the host is full, so it is
        // preempted and its tier drained.
        rt.event(DecodeEvent::Append { seq: 0 });
        assert_eq!(rt.seqs[0], Some(SeqState::Dead));
        assert_eq!(rt.preempted, 1);
        rt.event(DecodeEvent::Depart { seq: 1 });
        assert_eq!(rt.seqs[1], Some(SeqState::Dead));
        let grown = seq_bytes + kv_token();
        assert_eq!(chain(&rt), (0, grown, 2 * seq_bytes, 3));
    }

    #[test]
    fn a_full_host_tier_preempts_and_rejects() {
        let rep = one_sequence_host_cell().run();
        assert_eq!(
            (rep.evictions, rep.preempted, rep.rejected),
            (2, 4, 3),
            "{rep:?}"
        );
    }

    /// Every report of `pick_policy_matches_the_four_run_oracle`'s grid, of
    /// the `from_workload` cells of the two typed-failure tests, and of the
    /// unit tests' tiny cells under every policy, recorded before the
    /// replay kept one state per policy: one digest per group.
    #[test]
    fn serving_reports_match_the_recorded_digests() {
        let mut grid = Vec::new();
        for model in [ModelConfig::gpt_7b(), ModelConfig::gpt_13b()] {
            for gpus in [4, 8] {
                for k in [64u64, 128, 256] {
                    for gib in [1u64, 4, 16, 64, 256, 1024] {
                        let mut w = Workload::new(model.clone(), gpus, k << 10);
                        w.calib.set_host_memory_bytes(gib << 30);
                        grid.extend(four_run_oracle(&w).1);
                    }
                }
            }
        }
        let failing = KvCachePolicy::ALL
            .into_iter()
            .map(|policy| (ModelConfig::gpt_7b(), policy, 256u64))
            .chain([
                (ModelConfig::gpt_7b(), KvCachePolicy::TokenSwap, 768),
                (ModelConfig::gpt_7b(), KvCachePolicy::Caching, 128),
            ])
            .chain(KvCachePolicy::ALL.map(|policy| (ModelConfig::gpt_65b(), policy, 64)))
            .map(|(model, policy, k)| {
                ServingEngine::from_workload(&Workload::new(model, 8, k << 10), policy).run()
            })
            .collect::<Vec<_>>();
        let kv = kv_token();
        let mut tiny = Vec::new();
        for (max_batch, arrivals, device) in [
            (4, 12, 1 << 24),
            (3, 9, 1 << 22),
            (6, 12, 3 * 96 * kv),
            (5, 10, 2 * 96 * kv),
            (8, 24, 4 * 96 * kv),
        ] {
            for policy in KvCachePolicy::ALL {
                let params = tiny_params(max_batch, arrivals);
                tiny.push(ServingEngine::new(params, resources(device), policy).run());
            }
        }
        tiny.push(one_sequence_host_cell().run());
        let got = [digest(&grid), digest(&failing), digest(&tiny)];
        assert_eq!((grid.len(), failing.len(), tiny.len()), (288, 10, 21));
        assert_eq!(
            got,
            [
                0x8742_0754_5a3c_34f9,
                0x39cc_761e_8672_8458,
                0x7ac1_721b_c352_cf3c,
            ]
        );
    }
}
