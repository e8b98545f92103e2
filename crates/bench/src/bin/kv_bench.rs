//! Serving-side KV-cache benchmark: paged vs. caching vs. swap/recompute.
//!
//! Replays deterministic decode traces (`memo_model::decode`) over the
//! four `KvCachePolicy` legs across 7B/13B × {16K, 64K, 256K} context
//! cells and emits `BENCH_kv.json`. Per cell it records:
//!
//! * **Structural parity** — the two-level-bitmap [`PagedKvAllocator`]
//!   is replayed in lockstep with the linear-scan [`PagedKvReference`];
//!   free-page counts must agree at every step boundary and the final
//!   [`PagedSnapshot`]s (page tables, counters, stats) must be
//!   bit-identical. Asserted, and recorded as the `parity` column CI
//!   greps for.
//! * **Allocator-replay throughput** — wall-clock logical ops/sec of the
//!   paged path vs. the `CachingAllocator` realloc pattern (every token
//!   append mallocs a grown tensor before freeing the old one — the
//!   Figure 1(a) fragmentation story applied to serving). The paged
//!   path must be ≥3× at the headline cell (13B @ 256K).
//! * **Max concurrency** — largest number of full-context sequences a
//!   fresh allocator sustains before the first OOM, probed by chunked
//!   round-robin growth. Paged must beat caching strictly in every
//!   cell; the swap/recompute legs (token-wise α and the tiered pager)
//!   extend it further by staging cold KV off-device.
//! * **Serving throughput** — virtual-clock tokens/sec and peak batch
//!   from `ServingEngine::replay` on the same trace, one row per leg.

use memo_alloc::caching::CachingAllocator;
use memo_alloc::paged::{PagedKvAllocator, PagedKvReference};
use memo_alloc::DeviceAllocator;
use memo_core::serving::{ServingEngine, ServingResources};
use memo_model::config::ModelConfig;
use memo_model::decode::{generate_decode, DecodeEvent, DecodeParams, DecodeTrace};
use memo_model::trace::TensorId;
use memo_parallel::KvCachePolicy;
use memo_swap::kv::{plan_kv_swap, KvSwapInputs};
use memo_swap::TierLink;
use std::time::Instant;

/// Device KV budget: 8 full-context sequences plus half a sequence of
/// headroom, so the paged leg saturates at 8 and the caching leg's
/// realloc transient (old + new live at once) caps it strictly lower.
const DEVICE_SEQS_X2: u64 = 17; // device = 17/2 × context_kv

/// Host staging pool for the swap/recompute legs, in full sequences.
const HOST_SEQS: u64 = 4;
/// NVMe-class tier behind the host for the tiered leg, in sequences.
const NVME_SEQS: u64 = 16;

/// Minimum tokens per allocator page (vLLM-style block size). Long
/// contexts scale the block up (`context/1024`) so per-sequence page
/// tables stay bounded; internal fragmentation is at most one page.
const PAGE_TOKENS: u64 = 16;

/// Concurrency probes grow sequences in chunks of this many tokens.
const PROBE_CHUNK_TOKENS: u64 = 1024;

/// Timed replays take the best of this many repetitions.
const REPS: usize = 3;

struct LegRow {
    policy: KvCachePolicy,
    tokens_per_sec: f64,
    peak_seqs: usize,
    rejected: usize,
    preempted: usize,
    evictions: u64,
    reorgs: u64,
    alpha: Option<f64>,
    max_seqs: u32,
}

struct Cell {
    model: &'static str,
    context: u64,
    device_bytes: u64,
    kv_per_token: u64,
    steps: u64,
    total_tokens: u64,
    parity: bool,
    paged_ops_per_sec: f64,
    caching_ops_per_sec: f64,
    speedup: f64,
    legs: Vec<LegRow>,
}

impl Cell {
    fn max_seqs(&self, policy: KvCachePolicy) -> u32 {
        self.legs
            .iter()
            .find(|l| l.policy == policy)
            .map(|l| l.max_seqs)
            .unwrap()
    }
}

/// Lockstep parity replay: fast bitmap allocator and linear-scan
/// reference see the identical op sequence; cheap count checks at every
/// step boundary, full snapshot equality at the end.
fn parity_replay(trace: &DecodeTrace, device: u64, page: u64) -> bool {
    let kv = trace.params.kv_bytes_per_token();
    let mut fast = PagedKvAllocator::new(device, page);
    let mut refa = PagedKvReference::new(device, page);
    let mut dead = vec![false; trace.params.arrivals];
    for ev in &trace.events {
        match *ev {
            DecodeEvent::Arrive { seq, prompt_tokens } => {
                fast.admit(seq).unwrap();
                refa.admit(seq).unwrap();
                let a = fast.append_bytes(seq, prompt_tokens * kv);
                let b = refa.append_bytes(seq, prompt_tokens * kv);
                assert_eq!(a, b, "arrive({seq}) diverged");
                if a.is_err() {
                    fast.release(seq).unwrap();
                    refa.release(seq).unwrap();
                    dead[seq as usize] = true;
                }
            }
            DecodeEvent::Append { seq } => {
                if dead[seq as usize] {
                    continue;
                }
                let a = fast.append_bytes(seq, kv);
                let b = refa.append_bytes(seq, kv);
                assert_eq!(a, b, "append({seq}) diverged");
                if a.is_err() {
                    fast.release(seq).unwrap();
                    refa.release(seq).unwrap();
                    dead[seq as usize] = true;
                }
            }
            DecodeEvent::Depart { seq } => {
                if dead[seq as usize] {
                    continue;
                }
                fast.release(seq).unwrap();
                refa.release(seq).unwrap();
                dead[seq as usize] = true;
            }
            DecodeEvent::StepEnd => {
                assert_eq!(fast.free_pages(), refa.free_pages(), "free count diverged");
                assert_eq!(fast.pages_in_use(), refa.pages_in_use());
            }
        }
    }
    let (a, b) = (fast.snapshot(), refa.snapshot());
    assert_eq!(a, b, "final snapshots diverged");
    a == b
}

/// Wall-clock replay of the trace against the paged allocator alone.
fn time_paged_replay(trace: &DecodeTrace, device: u64, page: u64) -> f64 {
    let kv = trace.params.kv_bytes_per_token();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut a = PagedKvAllocator::new(device, page);
        let mut dead = vec![false; trace.params.arrivals];
        let start = Instant::now();
        for ev in &trace.events {
            match *ev {
                DecodeEvent::Arrive { seq, prompt_tokens } => {
                    a.admit(seq).unwrap();
                    if a.append_bytes(seq, prompt_tokens * kv).is_err() {
                        a.release(seq).unwrap();
                        dead[seq as usize] = true;
                    }
                }
                DecodeEvent::Append { seq } => {
                    if !dead[seq as usize] && a.append_bytes(seq, kv).is_err() {
                        a.release(seq).unwrap();
                        dead[seq as usize] = true;
                    }
                }
                DecodeEvent::Depart { seq } => {
                    if !dead[seq as usize] {
                        a.release(seq).unwrap();
                        dead[seq as usize] = true;
                    }
                }
                DecodeEvent::StepEnd => {}
            }
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Wall-clock replay against the `CachingAllocator` realloc pattern:
/// arrive mallocs the prompt KV; every append mallocs the grown tensor
/// *before* freeing the old one; depart frees.
fn time_caching_replay(trace: &DecodeTrace, device: u64) -> f64 {
    let kv = trace.params.kv_bytes_per_token();
    let n = trace.params.arrivals;
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut a = CachingAllocator::new(device);
        // Live tensor id and byte size per sequence; None = dead.
        let mut live: Vec<Option<(u64, u64)>> = vec![None; n];
        let mut next_id: u64 = 0;
        let mut fresh = || {
            next_id += 1;
            TensorId(next_id)
        };
        let start = Instant::now();
        for ev in &trace.events {
            match *ev {
                DecodeEvent::Arrive { seq, prompt_tokens } => {
                    let id = fresh();
                    let bytes = prompt_tokens * kv;
                    if a.malloc(id, bytes).is_ok() {
                        live[seq as usize] = Some((id.0, bytes));
                    }
                }
                DecodeEvent::Append { seq } => {
                    let Some((old, bytes)) = live[seq as usize] else {
                        continue;
                    };
                    let id = fresh();
                    if a.malloc(id, bytes + kv).is_ok() {
                        a.free(TensorId(old));
                        live[seq as usize] = Some((id.0, bytes + kv));
                    } else {
                        a.free(TensorId(old));
                        live[seq as usize] = None;
                    }
                }
                DecodeEvent::Depart { seq } => {
                    if let Some((id, _)) = live[seq as usize].take() {
                        a.free(TensorId(id));
                    }
                }
                DecodeEvent::StepEnd => {}
            }
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Largest `n` for which `n` sequences grow to full context on a fresh
/// paged allocator (chunked round-robin growth, the OOM probe).
fn probe_paged(context_tokens: u64, kv: u64, device: u64, page: u64) -> u32 {
    for n in 1..=64u32 {
        let mut a = PagedKvAllocator::new(device, page);
        let mut held = vec![0u64; n as usize];
        for s in 0..n {
            a.admit(s).unwrap();
        }
        let mut failed = false;
        'grow: while held.iter().any(|&h| h < context_tokens) {
            for (s, h) in held.iter_mut().enumerate() {
                if *h >= context_tokens {
                    continue;
                }
                let step = PROBE_CHUNK_TOKENS.min(context_tokens - *h);
                if a.append_bytes(s as u32, step * kv).is_err() {
                    failed = true;
                    break 'grow;
                }
                *h += step;
            }
        }
        if failed {
            return n - 1;
        }
    }
    64
}

/// Same probe against the caching allocator's realloc pattern.
fn probe_caching(context_tokens: u64, kv: u64, device: u64) -> u32 {
    for n in 1..=64u32 {
        let mut a = CachingAllocator::new(device);
        let mut held = vec![0u64; n as usize];
        let mut ids: Vec<Option<u64>> = vec![None; n as usize];
        let mut next_id: u64 = 0;
        let mut failed = false;
        'grow: while held.iter().any(|&h| h < context_tokens) {
            for s in 0..n as usize {
                if held[s] >= context_tokens {
                    continue;
                }
                let step = PROBE_CHUNK_TOKENS.min(context_tokens - held[s]);
                next_id += 1;
                if a.malloc(TensorId(next_id), (held[s] + step) * kv).is_err() {
                    failed = true;
                    break 'grow;
                }
                if let Some(old) = ids[s] {
                    a.free(TensorId(old));
                }
                ids[s] = Some(next_id);
                held[s] += step;
            }
        }
        if failed {
            return n - 1;
        }
    }
    64
}

/// Analytic concurrency limit of the token-wise α leg: the host pool
/// must hold the quantized deficit (same admission rule the engine
/// uses; overlap infeasibility only costs throughput).
fn probe_kvswap(context_kv: u64, device: u64, host_capacity: u64) -> u32 {
    for n in 1..=256u32 {
        let plan = plan_kv_swap(&KvSwapInputs {
            total_kv_bytes: n as u64 * context_kv,
            device_kv_bytes: device,
            step_compute_secs: 1e-3,
            host_bandwidth: 24e9,
            host_capacity,
        });
        if plan.host_bytes > host_capacity {
            return n - 1;
        }
    }
    256
}

/// Analytic limit of the tiered leg: cold sequences page out whole, so
/// concurrency ends when device + every tier is full.
fn probe_tiered(context_kv: u64, device: u64, tier_capacity: u64) -> u32 {
    ((device + tier_capacity) / context_kv) as u32
}

fn run_cell(model: ModelConfig, context: u64) -> Cell {
    let name: &'static str = match model.name {
        "7B" => "7B",
        "13B" => "13B",
        other => panic!("unexpected model {other}"),
    };
    let mut params = DecodeParams::cell(model, context, 12, 24);
    // Long-context decode phases are capped so the 256K cells replay in
    // seconds; the KV *footprint* still reflects the full context.
    params.decode_tokens = params.decode_tokens.min(2048);
    let trace = generate_decode(&params);

    let kv = params.kv_bytes_per_token();
    let context_tokens = params.prompt_tokens + params.decode_tokens;
    let context_kv = context_tokens * kv;
    let device = DEVICE_SEQS_X2 * context_kv / 2;
    let page = (context_tokens / 1024).max(PAGE_TOKENS) * kv;
    let host_capacity = HOST_SEQS * context_kv;
    let nvme_capacity = NVME_SEQS * context_kv;

    let parity = parity_replay(&trace, device, page);

    let ops = trace.logical_ops() as f64;
    let paged_secs = time_paged_replay(&trace, device, page);
    let caching_secs = time_caching_replay(&trace, device);
    let paged_ops_per_sec = ops / paged_secs;
    let caching_ops_per_sec = ops / caching_secs;

    let max_by_policy = |p: KvCachePolicy| match p {
        KvCachePolicy::Paged => probe_paged(context_tokens, kv, device, page),
        KvCachePolicy::Caching => probe_caching(context_tokens, kv, device),
        KvCachePolicy::TokenSwap => probe_kvswap(context_kv, device, host_capacity),
        KvCachePolicy::Tiered => probe_tiered(context_kv, device, host_capacity + nvme_capacity),
    };

    let resources = ServingResources {
        device_kv_bytes: device,
        page_bytes: page,
        peak_flops: 312e12,
        efficiency: 0.45,
        kernel_launch_secs: 30e-6,
        host_bandwidth: 24e9,
        host_capacity,
        reorg_penalty_secs: 0.01,
        extra_tiers: vec![TierLink {
            bandwidth: 6e9,
            capacity: nvme_capacity,
        }],
    };
    let legs = KvCachePolicy::ALL
        .iter()
        .map(|&policy| {
            let engine = ServingEngine::new(params.clone(), resources.clone(), policy);
            let rep = engine.replay(&trace);
            LegRow {
                policy,
                tokens_per_sec: rep.tokens_per_sec,
                peak_seqs: rep.peak_seqs,
                rejected: rep.rejected,
                preempted: rep.preempted,
                evictions: rep.evictions,
                reorgs: rep.reorgs,
                alpha: rep.alpha,
                max_seqs: max_by_policy(policy),
            }
        })
        .collect();

    Cell {
        model: name,
        context,
        device_bytes: device,
        kv_per_token: kv,
        steps: trace.steps,
        total_tokens: trace.total_tokens,
        parity,
        paged_ops_per_sec,
        caching_ops_per_sec,
        speedup: paged_ops_per_sec / caching_ops_per_sec,
        legs,
    }
}

fn main() {
    let contexts: [u64; 3] = [16 << 10, 64 << 10, 256 << 10];
    let mut cells = Vec::new();
    for model in [ModelConfig::gpt_7b(), ModelConfig::gpt_13b()] {
        for &context in &contexts {
            cells.push(run_cell(model.clone(), context));
        }
    }

    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>12} {:>8}  max seqs p/c/s/t",
        "cell", "parity", "speedup", "paged ops/s", "cache ops/s", ""
    );
    for c in &cells {
        println!(
            "{:<10} {:>8} {:>7.1}x {:>12.0} {:>12.0} {:>8}  {}/{}/{}/{}",
            format!("{}@{}k", c.model, c.context >> 10),
            c.parity,
            c.speedup,
            c.paged_ops_per_sec,
            c.caching_ops_per_sec,
            "",
            c.max_seqs(KvCachePolicy::Paged),
            c.max_seqs(KvCachePolicy::Caching),
            c.max_seqs(KvCachePolicy::TokenSwap),
            c.max_seqs(KvCachePolicy::Tiered),
        );
        for l in &c.legs {
            println!(
                "  {:<10} tok/s {:>10.1}  peak {:>3}  rej {:>3}  pre {:>3}  evic {:>4}  reorg {:>3}{}",
                l.policy.name(),
                l.tokens_per_sec,
                l.peak_seqs,
                l.rejected,
                l.preempted,
                l.evictions,
                l.reorgs,
                l.alpha.map_or(String::new(), |a| format!("  α={a:.3}")),
            );
        }
    }

    // ---- acceptance gates -----------------------------------------------
    for c in &cells {
        assert!(c.parity, "{}@{}k: parity failed", c.model, c.context >> 10);
        let (p, q) = (
            c.max_seqs(KvCachePolicy::Paged),
            c.max_seqs(KvCachePolicy::Caching),
        );
        assert!(
            p > q,
            "{}@{}k: paged max concurrency {p} not strictly above caching {q}",
            c.model,
            c.context >> 10
        );
    }
    let headline = cells
        .iter()
        .find(|c| c.model == "13B" && c.context == 256 << 10)
        .unwrap();
    assert!(
        headline.speedup >= 3.0,
        "headline 13B@256k replay speedup {:.2}x below the 3x bar",
        headline.speedup
    );
    println!(
        "\nheadline 13B@256k: {:.1}x replay speedup, {} vs {} max sequences",
        headline.speedup,
        headline.max_seqs(KvCachePolicy::Paged),
        headline.max_seqs(KvCachePolicy::Caching),
    );

    // Hand-rolled JSON (the workspace has no JSON dependency).
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            let legs: Vec<String> = c
                .legs
                .iter()
                .map(|l| {
                    format!(
                        "        {{\"policy\": \"{}\", \"tokens_per_sec\": {:.3}, \
                         \"peak_seqs\": {}, \"rejected\": {}, \"preempted\": {}, \
                         \"evictions\": {}, \"reorgs\": {}, \"alpha\": {}, \
                         \"max_seqs\": {}}}",
                        l.policy.name(),
                        l.tokens_per_sec,
                        l.peak_seqs,
                        l.rejected,
                        l.preempted,
                        l.evictions,
                        l.reorgs,
                        l.alpha.map_or("null".into(), |a| format!("{a:.4}")),
                        l.max_seqs,
                    )
                })
                .collect();
            format!(
                "    {{\"model\": \"{}\", \"context\": {}, \"device_bytes\": {}, \
                 \"kv_per_token\": {}, \"steps\": {}, \"total_tokens\": {}, \
                 \"parity\": {}, \"paged_ops_per_sec\": {:.1}, \
                 \"caching_ops_per_sec\": {:.1}, \"speedup\": {:.3}, \
                 \"legs\": [\n{}\n    ]}}",
                c.model,
                c.context,
                c.device_bytes,
                c.kv_per_token,
                c.steps,
                c.total_tokens,
                c.parity,
                c.paged_ops_per_sec,
                c.caching_ops_per_sec,
                c.speedup,
                legs.join(",\n"),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"kv\",\n  \"headline\": {{\"model\": \"13B\", \"context\": {}, \
         \"speedup\": {:.3}, \"paged_max_seqs\": {}, \"caching_max_seqs\": {}}},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        256 << 10,
        headline.speedup,
        headline.max_seqs(KvCachePolicy::Paged),
        headline.max_seqs(KvCachePolicy::Caching),
        cell_json.join(",\n"),
    );
    std::fs::write("BENCH_kv.json", &json).expect("write BENCH_kv.json");
    println!("wrote BENCH_kv.json");
}
