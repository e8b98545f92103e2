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
//!   sequences down the PR-6 tier chain via [`KvPager`].
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
use memo_alloc::paged::{PagedError, PagedKvAllocator};
use memo_alloc::DeviceAllocator;
use memo_model::decode::{generate_decode, DecodeEvent, DecodeParams, DecodeTrace};
use memo_model::trace::TensorId;
use memo_parallel::search::enumerate_configs;
use memo_parallel::{KvCachePolicy, ParallelConfig, SystemSpec};
use memo_swap::alpha::TierLink;
use memo_swap::kv::{plan_kv_swap, KvPager, KvSwapInputs};

/// Device/host resources a serving run sees, normally derived from a
/// [`Workload`]'s calibration by [`ServingEngine::from_workload`].
#[derive(Debug, Clone)]
pub(crate) struct ServingResources {
    /// Device bytes available to the KV cache (after weights).
    pub device_kv_bytes: u64,
    /// Page size of the paged policy, bytes.
    page_bytes: u64,
    /// Device peak FLOP/s and the decode-GEMM efficiency against it.
    peak_flops: f64,
    efficiency: f64,
    /// Fixed per-step launch overhead, seconds.
    kernel_launch_secs: f64,
    /// Effective device↔host bandwidth, bytes/s.
    pub host_bandwidth: f64,
    /// Host DRAM available for swapped/paged KV, bytes.
    pub host_capacity: u64,
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
    pub utilization: f64,
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
    let mut best: Option<(f64, CellOutcome)> = None;
    for policy in KvCachePolicy::ALL {
        eng.policy = policy;
        let rep = eng.replay(&trace);
        let outcome = rep.to_outcome();
        let score = if outcome.is_ok() {
            rep.tokens_per_sec
        } else {
            f64::NEG_INFINITY
        };
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, outcome));
        }
    }
    best.expect("KvCachePolicy::ALL is non-empty").1
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
    /// KV paged out to `tier` (tiered policy).
    PagedOut { tier: usize, bytes: u64 },
    /// Rejected at arrival or preempted mid-flight; later events skipped.
    Dead,
}

struct Replay<'a> {
    eng: &'a ServingEngine,
    trace: &'a DecodeTrace,
    kv_per_token: u64,
    seqs: Vec<Option<SeqState>>,
    live: usize,
    /// Device-resident KV bytes (all policies).
    resident_kv: u64,
    /// Off-device KV bytes under the swap policy.
    swapped_kv: u64,
    // Policy state (at most one is live per run).
    paged: Option<PagedKvAllocator>,
    caching: Option<CachingAllocator>,
    pager: Option<KvPager>,
    /// Realloc-pattern tensor ids for the caching leg.
    caching_ids: Vec<Option<TensorId>>,
    next_tensor: u64,
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
        // A device pool below one page holds no page: the paged leg admits
        // nothing, and one page is the smallest request it refuses.
        let no_page = (eng.policy == KvCachePolicy::Paged && r.device_kv_bytes < r.page_bytes)
            .then_some(Shortfall {
                host: false,
                needed: r.page_bytes,
                capacity: r.device_kv_bytes,
            });
        let (paged, caching, pager) = match eng.policy {
            KvCachePolicy::Paged => (
                no_page
                    .is_none()
                    .then(|| PagedKvAllocator::new(paged_pool_bytes(r, trace), r.page_bytes)),
                None,
                None,
            ),
            KvCachePolicy::Caching => (None, Some(CachingAllocator::new(r.device_kv_bytes)), None),
            KvCachePolicy::TokenSwap => (None, None, None),
            KvCachePolicy::Tiered => {
                let mut caps = vec![r.host_capacity];
                caps.extend(r.extra_tiers.iter().map(|t| t.capacity));
                (None, None, Some(KvPager::new(&caps)))
            }
        };
        Replay {
            eng,
            trace,
            kv_per_token: eng.params.kv_bytes_per_token(),
            seqs: Vec::new(),
            live: 0,
            resident_kv: 0,
            swapped_kv: 0,
            paged,
            caching,
            pager,
            caching_ids: Vec::new(),
            next_tensor: 0,
            step_flops: 0.0,
            total_flops: 0.0,
            sim_secs: 0.0,
            steps: 0,
            tokens_generated: 0,
            peak_seqs: 0,
            rejected: 0,
            preempted: 0,
            shortfall: no_page,
            peak_kv: 0,
            host_peak: 0,
            alpha_used: 0.0,
        }
    }

    fn state(&mut self, seq: u32) -> &mut Option<SeqState> {
        if self.seqs.len() <= seq as usize {
            self.seqs.resize(seq as usize + 1, None);
        }
        &mut self.seqs[seq as usize]
    }

    fn fresh_tensor(&mut self) -> TensorId {
        let id = TensorId(self.next_tensor);
        self.next_tensor += 1;
        id
    }

    /// FLOPs one appended token costs for a sequence holding `tokens`:
    /// the weight GEMVs (2·P) plus attention over the KV held.
    fn token_flops(&self, tokens: u64) -> f64 {
        let m = &self.eng.params.model;
        2.0 * m.params() as f64 + 4.0 * (m.hidden * m.n_layers) as f64 * tokens as f64
    }

    fn note_live(&mut self, delta: i64) {
        self.live = (self.live as i64 + delta) as usize;
        self.peak_seqs = self.peak_seqs.max(self.live);
    }

    fn device_kv_now(&self) -> u64 {
        match self.eng.policy {
            KvCachePolicy::Paged => self
                .paged
                .as_ref()
                .map_or(0, |a| a.pages_in_use() * a.page_bytes()),
            KvCachePolicy::Caching => self.caching.as_ref().unwrap().allocated_bytes(),
            KvCachePolicy::TokenSwap => self.resident_kv.min(self.eng.resources.device_kv_bytes),
            KvCachePolicy::Tiered => self.resident_kv,
        }
    }

    fn run(&mut self) {
        for ev in &self.trace.events {
            match *ev {
                DecodeEvent::Arrive { seq, prompt_tokens } => self.arrive(seq, prompt_tokens),
                DecodeEvent::Append { seq } => self.append(seq),
                DecodeEvent::Depart { seq } => self.depart(seq),
                DecodeEvent::StepEnd => self.step_end(),
            }
            self.peak_kv = self.peak_kv.max(self.device_kv_now());
        }
    }

    fn arrive(&mut self, seq: u32, prompt_tokens: u64) {
        let bytes = prompt_tokens * self.kv_per_token;
        let r = &self.eng.resources;
        // Host bytes the swap leg asked for; every other leg asks the device.
        let mut host_needed = None;
        let admitted = match self.eng.policy {
            // A pool of no page admits nothing.
            KvCachePolicy::Paged => self.paged.as_mut().is_some_and(|a| {
                a.admit(seq).expect("fresh sequence");
                match a.append_bytes(seq, bytes) {
                    Ok(()) => true,
                    Err(PagedError::OutOfPages { .. }) => {
                        a.release(seq).unwrap();
                        false
                    }
                    Err(e) => panic!("paged admit: {e}"),
                }
            }),
            KvCachePolicy::Caching => {
                let id = self.fresh_tensor();
                let a = self.caching.as_mut().unwrap();
                if a.malloc(id, bytes).is_ok() {
                    if self.caching_ids.len() <= seq as usize {
                        self.caching_ids.resize(seq as usize + 1, None);
                    }
                    self.caching_ids[seq as usize] = Some(id);
                    true
                } else {
                    false
                }
            }
            KvCachePolicy::TokenSwap => {
                // Admit as long as the host can hold the swapped rows.
                // Overlap infeasibility is a throughput hit, not an OOM:
                // decode turns bandwidth-bound (the FlexGen regime) and
                // `step_end` charges the exposed transfer time.
                let plan = plan_kv_swap(&KvSwapInputs {
                    total_kv_bytes: self.resident_kv + self.swapped_kv + bytes,
                    device_kv_bytes: r.device_kv_bytes,
                    step_compute_secs: self.nominal_step_secs(),
                    host_bandwidth: r.host_bandwidth,
                });
                host_needed = Some(plan.host_bytes);
                plan.host_bytes <= r.host_capacity
            }
            KvCachePolicy::Tiered => self.tiered_make_room(bytes, None),
        };
        if admitted {
            if self.eng.policy == KvCachePolicy::TokenSwap
                || self.eng.policy == KvCachePolicy::Tiered
            {
                self.resident_kv += bytes;
            }
            *self.state(seq) = Some(SeqState::Resident { bytes });
            self.note_live(1);
            self.step_flops += prompt_tokens as f64 * self.token_flops(prompt_tokens / 2);
        } else {
            *self.state(seq) = Some(SeqState::Dead);
            self.rejected += 1;
            match host_needed {
                Some(needed) => self.note_refusal(true, needed, self.eng.resources.host_capacity),
                None => self.note_refusal(
                    false,
                    self.device_need(0, bytes),
                    self.eng.resources.device_kv_bytes,
                ),
            }
        }
    }

    /// Device bytes a resident sequence holding `held` bytes needs to grow
    /// to `grown`: whole pages under paging, the old and the new tensor at
    /// once under the caching leg's realloc pattern.
    fn device_need(&self, held: u64, grown: u64) -> u64 {
        match self.eng.policy {
            KvCachePolicy::Paged => {
                let page = self.eng.resources.page_bytes;
                grown.div_ceil(page).saturating_mul(page)
            }
            KvCachePolicy::Caching => held + grown,
            KvCachePolicy::TokenSwap | KvCachePolicy::Tiered => grown,
        }
    }

    /// Keep the smallest refused request that exceeds the whole pool that
    /// refused it: the run's failure if it serves no token.
    fn note_refusal(&mut self, host: bool, needed: u64, capacity: u64) {
        if needed > capacity && self.shortfall.is_none_or(|s| needed < s.needed) {
            self.shortfall = Some(Shortfall {
                host,
                needed,
                capacity,
            });
        }
    }

    /// Tiered admission: page out the coldest resident sequences until
    /// `bytes` fit on device (never the sequence asking for room).
    /// Returns false if the chain is full too.
    fn tiered_make_room(&mut self, bytes: u64, exclude: Option<u32>) -> bool {
        if bytes > self.eng.resources.device_kv_bytes {
            return false;
        }
        while self.resident_kv + bytes > self.eng.resources.device_kv_bytes {
            let Some(victim) = self.coldest_resident(exclude) else {
                return false;
            };
            let Some(SeqState::Resident { bytes: vb }) = self.seqs[victim as usize] else {
                unreachable!()
            };
            let pager = self.pager.as_mut().unwrap();
            match pager.evict(victim, vb) {
                Ok(tier) => {
                    self.seqs[victim as usize] = Some(SeqState::PagedOut { tier, bytes: vb });
                    self.resident_kv -= vb;
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Lowest-id live resident sequence — oldest arrival, the coldest
    /// under continuous batching's monotone ids.
    fn coldest_resident(&self, exclude: Option<u32>) -> Option<u32> {
        self.seqs.iter().enumerate().find_map(|(i, s)| {
            (matches!(s, Some(SeqState::Resident { .. })) && Some(i as u32) != exclude)
                .then_some(i as u32)
        })
    }

    fn append(&mut self, seq: u32) {
        let kv = self.kv_per_token;
        let state = match *self.state(seq) {
            Some(s) => s,
            None => panic!("append before arrive"),
        };
        match state {
            SeqState::Dead => (),
            SeqState::PagedOut { tier, bytes } => {
                let pager = self.pager.as_mut().unwrap();
                if pager.append(seq, kv).is_ok() {
                    self.seqs[seq as usize] = Some(SeqState::PagedOut {
                        tier,
                        bytes: bytes + kv,
                    });
                    self.decode_token(bytes / self.kv_per_token);
                } else {
                    pager.release(seq);
                    self.seqs[seq as usize] = Some(SeqState::Dead);
                    self.note_live(-1);
                    self.preempted += 1;
                }
            }
            SeqState::Resident { bytes } => {
                let tokens = bytes / kv;
                let ok = match self.eng.policy {
                    KvCachePolicy::Paged => {
                        match self.paged.as_mut().unwrap().append_bytes(seq, kv) {
                            Ok(()) => true,
                            Err(PagedError::OutOfPages { .. }) => false,
                            Err(e) => panic!("paged append: {e}"),
                        }
                    }
                    KvCachePolicy::Caching => {
                        // Realloc pattern: new tensor first, then free old.
                        let old = self.caching_ids[seq as usize].expect("live tensor");
                        let id = self.fresh_tensor();
                        let a = self.caching.as_mut().unwrap();
                        if a.malloc(id, bytes + kv).is_ok() {
                            a.free(old);
                            self.caching_ids[seq as usize] = Some(id);
                            true
                        } else {
                            false
                        }
                    }
                    KvCachePolicy::TokenSwap => {
                        self.resident_kv += kv;
                        true
                    }
                    KvCachePolicy::Tiered => {
                        if self.tiered_make_room(kv, Some(seq)) {
                            self.resident_kv += kv;
                            true
                        } else {
                            false
                        }
                    }
                };
                if ok {
                    self.seqs[seq as usize] = Some(SeqState::Resident { bytes: bytes + kv });
                    self.decode_token(tokens);
                } else {
                    let needed = self.device_need(bytes, bytes + kv);
                    self.note_refusal(false, needed, self.eng.resources.device_kv_bytes);
                    self.kill_resident(seq);
                }
            }
        }
    }

    fn decode_token(&mut self, tokens_held: u64) {
        self.step_flops += self.token_flops(tokens_held);
        self.tokens_generated += 1;
    }

    fn kill_resident(&mut self, seq: u32) {
        let Some(SeqState::Resident { bytes }) = self.seqs[seq as usize] else {
            unreachable!()
        };
        self.release_resident(seq, bytes);
        self.seqs[seq as usize] = Some(SeqState::Dead);
        self.note_live(-1);
        self.preempted += 1;
    }

    /// Return a resident sequence's `bytes` of KV to the policy's pool.
    fn release_resident(&mut self, seq: u32, bytes: u64) {
        match self.eng.policy {
            KvCachePolicy::Paged => self.paged.as_mut().unwrap().release(seq).unwrap(),
            KvCachePolicy::Caching => {
                let id = self.caching_ids[seq as usize].take().expect("live tensor");
                self.caching.as_mut().unwrap().free(id);
            }
            KvCachePolicy::TokenSwap => {
                // After step-end rebalancing part of the rows may sit in
                // the host pool: drain device first, then the host-staged
                // remainder.
                let from_resident = bytes.min(self.resident_kv);
                self.resident_kv -= from_resident;
                self.swapped_kv -= (bytes - from_resident).min(self.swapped_kv);
            }
            KvCachePolicy::Tiered => self.resident_kv -= bytes,
        }
    }

    /// Highest-id live resident sequence — the newest arrival, carrying
    /// the least prefill investment; shed first under host pressure.
    fn youngest_resident(&self) -> Option<u32> {
        self.seqs
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, s)| matches!(s, Some(SeqState::Resident { .. })).then_some(i as u32))
    }

    fn depart(&mut self, seq: u32) {
        let state = match *self.state(seq) {
            Some(s) => s,
            None => panic!("depart before arrive"),
        };
        match state {
            SeqState::Dead => return,
            SeqState::PagedOut { .. } => self.pager.as_mut().unwrap().release(seq),
            SeqState::Resident { bytes } => self.release_resident(seq, bytes),
        }
        self.seqs[seq as usize] = Some(SeqState::Dead);
        self.note_live(-1);
    }

    /// Pure compute time of the step just accumulated.
    fn step_compute_secs(&self) -> f64 {
        let r = &self.eng.resources;
        r.kernel_launch_secs + self.step_flops / (r.peak_flops * r.efficiency)
    }

    /// A nominal full-batch step time for admission-time α solves, so
    /// admission does not depend on the half-built current step.
    fn nominal_step_secs(&self) -> f64 {
        let r = &self.eng.resources;
        let per_token = self.token_flops(self.eng.params.prompt_tokens);
        r.kernel_launch_secs
            + self.eng.params.max_batch as f64 * per_token / (r.peak_flops * r.efficiency)
    }

    fn step_end(&mut self) {
        let r = &self.eng.resources;
        let compute = self.step_compute_secs();
        let overhead = match self.eng.policy {
            KvCachePolicy::Paged | KvCachePolicy::Caching => 0.0,
            KvCachePolicy::TokenSwap => {
                // Appends may have grown the pool past what the host can
                // absorb; shed the youngest sequences first (they have
                // the least prefill investment).
                loop {
                    let total = self.resident_kv + self.swapped_kv;
                    let plan = plan_kv_swap(&KvSwapInputs {
                        total_kv_bytes: total,
                        device_kv_bytes: r.device_kv_bytes,
                        step_compute_secs: compute,
                        host_bandwidth: r.host_bandwidth,
                    });
                    if plan.host_bytes > r.host_capacity {
                        if let Some(victim) = self.youngest_resident() {
                            self.kill_resident(victim);
                            continue;
                        }
                    }
                    // Rebalance the split to the solved α.
                    self.swapped_kv = plan.host_bytes.min(total);
                    self.resident_kv = total - self.swapped_kv;
                    self.alpha_used = self.alpha_used.max(plan.alpha_needed);
                    self.host_peak = self.host_peak.max(plan.host_bytes);
                    break plan.step_overhead_secs;
                }
            }
            KvCachePolicy::Tiered => {
                // Paged-out live sequences stream their KV through their
                // tier's link every step; charge what compute cannot hide.
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
                let total = self.resident_kv + needed;
                if total > 0 {
                    self.alpha_used = self.alpha_used.max(needed as f64 / total as f64);
                }
                let pager = self.pager.as_ref().unwrap();
                self.host_peak = self.host_peak.max(pager.host_peak());
                (transfer - compute).max(0.0)
            }
        };
        self.sim_secs += compute + overhead;
        self.total_flops += self.step_flops;
        self.step_flops = 0.0;
        self.steps += 1;
    }

    fn finish(self) -> ServingReport {
        let r = &self.eng.resources;
        let mut sim_secs = self.sim_secs;
        let reorgs = self.caching.as_ref().map_or(0, |a| a.reorg_count());
        sim_secs += reorgs as f64 * r.reorg_penalty_secs;
        let host_peak = match self.eng.policy {
            KvCachePolicy::Tiered => self
                .pager
                .as_ref()
                .map_or(0, |p| p.host_peak())
                .max(self.host_peak),
            _ => self.host_peak,
        };
        ServingReport {
            policy: self.eng.policy,
            steps: self.steps,
            tokens_generated: self.tokens_generated,
            peak_seqs: self.peak_seqs,
            rejected: self.rejected,
            preempted: self.preempted,
            shortfall: self.shortfall,
            evictions: self.pager.as_ref().map_or(0, |p| p.evictions()),
            peak_kv_bytes: self.peak_kv,
            host_peak_bytes: host_peak,
            reorgs,
            alpha: match self.eng.policy {
                KvCachePolicy::TokenSwap | KvCachePolicy::Tiered => Some(self.alpha_used),
                _ => None,
            },
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
                    let pool = whole.paged.as_ref().expect("a pool of pages");
                    capped += usize::from(pool.total_pages() < device_pages);
                    whole.paged = Some(PagedKvAllocator::new(r.device_kv_bytes, r.page_bytes));
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
        let pool = Replay::new(&eng, &trace).paged.expect("a pool of pages");
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
}
