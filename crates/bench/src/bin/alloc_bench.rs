//! Allocator trace-replay benchmark.
//!
//! Times iteration-trace generation and caching-allocator replay at
//! 7B/8GPU × {64K, 256K, 1M} tokens × {FullRecompute, MemoTokenWise},
//! comparing the segregated-free-list `CachingAllocator` against the
//! original BTree-indexed implementation (kept verbatim as
//! `ReferenceCachingAllocator`). Emits `BENCH_alloc.json` with per-cell
//! wall-clock, requests/sec for both implementations, the replay speedup,
//! and `identical_layout` — a full structural-parity check (addresses,
//! stats, Figure 1(a) series and event streams) that is also asserted, so
//! the binary aborts on any bit-exactness violation.

use memo_alloc::caching::CachingAllocator;
use memo_alloc::reference::ReferenceCachingAllocator;
use memo_alloc::{snapshot, DeviceAllocator};
use memo_model::activations::LayerDims;
use memo_model::config::{DType, ModelConfig};
use memo_model::trace::{self, IterationTrace, MemOp, RematPolicy, Request, TraceParams};
use memo_parallel::strategy::ParallelConfig;
use std::time::Instant;

/// Roomy device: every replay covers the whole trace (no OOM cut-off), so
/// the timing measures the malloc/free hot loop, not crash handling.
const CAPACITY: u64 = 1 << 42;

struct Cell {
    policy: RematPolicy,
    seq_k: u64,
    requests: usize,
    reps: usize,
    generate_ms: f64,
    old_replay_ms: f64,
    new_replay_ms: f64,
    old_rps: f64,
    new_rps: f64,
    identical_layout: bool,
}

/// Per-GPU trace for the cell, mirroring the profiler's construction
/// (sequence/tensor-parallel sharding of the 7B model on 8 GPUs).
fn build_trace(
    model: &ModelConfig,
    cfg: &ParallelConfig,
    seq_len: u64,
    policy: RematPolicy,
) -> (IterationTrace, f64) {
    let dims = LayerDims::new(cfg.tokens_local(seq_len), model, DType::BF16);
    let mut local_model = model.clone();
    local_model.n_layers = cfg.layers_local(model.n_layers);
    let mut params = TraceParams::new(&local_model, dims, policy);
    params.vocab_local = (model.vocab as u64).div_ceil(cfg.tp as u64);
    params.comm_factor = if cfg.sp { cfg.tp as u64 } else { 1 };
    params.ce_chunk_tokens = 8192;
    let t0 = Instant::now();
    let trace = trace::generate(&params);
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    trace.validate().expect("generated trace is valid");
    (trace, generate_ms)
}

/// The lean replay loop both legs are timed on: no sample recording, no
/// event log — just the allocator.
fn replay_flat<A: DeviceAllocator>(a: &mut A, reqs: &[Request]) {
    for r in reqs {
        match r.op {
            MemOp::Malloc => {
                a.malloc(r.tensor, r.bytes).expect("roomy device");
            }
            MemOp::Free => a.free(r.tensor),
        }
    }
}

/// Warm up, then time `reps` full replays on one long-lived allocator
/// (steady state: segments stay cached between iterations, like a real
/// training loop). Returns average wall-ms per replay.
fn time_replays<A: DeviceAllocator>(a: &mut A, reqs: &[Request], reps: usize) -> f64 {
    for _ in 0..2 {
        replay_flat(a, reqs);
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        replay_flat(a, reqs);
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Full structural parity: both implementations replay the trace recording
/// everything; series (addresses are implied by identical event streams +
/// counters), stats and events must match bit for bit.
fn parity_check(trace: &IterationTrace) -> bool {
    let mut new = CachingAllocator::new(CAPACITY);
    let mut old = ReferenceCachingAllocator::new(CAPACITY);
    new.record_events(true);
    old.record_events(true);
    let series_new = snapshot::replay(&mut new, trace);
    let series_old = snapshot::replay(&mut old, trace);
    series_new == series_old
        && new.stats() == old.stats()
        && new.total_free_bytes() == old.total_free_bytes()
        && new.largest_free_block() == old.largest_free_block()
        && new.take_events() == old.take_events()
}

fn policy_name(p: RematPolicy) -> &'static str {
    match p {
        RematPolicy::FullRecompute => "full_recompute",
        RematPolicy::MemoTokenWise => "memo_token_wise",
        RematPolicy::KeepAll => "keep_all",
    }
}

fn main() {
    let model = ModelConfig::gpt_7b();
    let n_gpus = 8;
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let seq_ks: [u64; 3] = [64, 256, 1024];
    let policies = [RematPolicy::FullRecompute, RematPolicy::MemoTokenWise];

    println!(
        "alloc_bench — 7B on {n_gpus} GPUs ({}), {seq_ks:?}K × {{FullRecompute, MemoTokenWise}}\n",
        cfg.describe()
    );
    println!(
        "{:<16} {:>6} {:>9} {:>10} {:>12} {:>12} {:>8} {:>9}",
        "policy", "seq", "requests", "gen ms", "btree ms", "seglist ms", "speedup", "parity"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &policy in &policies {
        for &s_k in &seq_ks {
            let (trace, generate_ms) = build_trace(&model, &cfg, s_k * 1024, policy);
            let reqs: Vec<Request> = trace.flatten().collect();
            let reps = (2_000_000 / reqs.len().max(1)).clamp(10, 2000);

            let mut old = ReferenceCachingAllocator::new(CAPACITY);
            let old_replay_ms = time_replays(&mut old, &reqs, reps);
            let mut new = CachingAllocator::new(CAPACITY);
            let new_replay_ms = time_replays(&mut new, &reqs, reps);

            let identical_layout = parity_check(&trace);
            assert!(
                identical_layout,
                "{} @ {s_k}K: segregated-list allocator diverged from the BTree reference",
                policy_name(policy)
            );

            let rps = |ms: f64| reqs.len() as f64 / (ms / 1e3).max(1e-12);
            let cell = Cell {
                policy,
                seq_k: s_k,
                requests: reqs.len(),
                reps,
                generate_ms,
                old_replay_ms,
                new_replay_ms,
                old_rps: rps(old_replay_ms),
                new_rps: rps(new_replay_ms),
                identical_layout,
            };
            println!(
                "{:<16} {:>5}K {:>9} {:>10.2} {:>12.3} {:>12.3} {:>7.1}x {:>9}",
                policy_name(policy),
                s_k,
                cell.requests,
                cell.generate_ms,
                cell.old_replay_ms,
                cell.new_replay_ms,
                cell.old_replay_ms / cell.new_replay_ms.max(1e-12),
                cell.identical_layout
            );
            cells.push(cell);
        }
    }

    let memo_1m = cells
        .iter()
        .find(|c| c.policy == RematPolicy::MemoTokenWise && c.seq_k == 1024)
        .expect("MemoTokenWise@1M cell present");
    let headline = memo_1m.old_replay_ms / memo_1m.new_replay_ms.max(1e-12);
    println!(
        "\nMemoTokenWise@1M replay: {:.2}x vs BTree reference \
         ({:.0} → {:.0} requests/sec, target >= 3x)",
        headline, memo_1m.old_rps, memo_1m.new_rps
    );

    // Hand-rolled JSON (the workspace has no JSON dependency).
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"policy\": \"{}\", \"seq_k\": {}, \"requests\": {}, \"reps\": {}, \
                 \"generate_ms\": {:.3}, \"btree_replay_ms\": {:.4}, \
                 \"seglist_replay_ms\": {:.4}, \"btree_requests_per_sec\": {:.0}, \
                 \"seglist_requests_per_sec\": {:.0}, \"replay_speedup\": {:.3}, \
                 \"identical_layout\": {}}}",
                policy_name(c.policy),
                c.seq_k,
                c.requests,
                c.reps,
                c.generate_ms,
                c.old_replay_ms,
                c.new_replay_ms,
                c.old_rps,
                c.new_rps,
                c.old_replay_ms / c.new_replay_ms.max(1e-12),
                c.identical_layout
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"alloc\",\n  \"model\": \"{}\",\n  \"n_gpus\": {},\n  \
         \"parallel\": \"{}\",\n  \"cells\": [\n{}\n  ],\n  \
         \"memo_1m_replay_speedup\": {:.3}\n}}\n",
        model.name,
        n_gpus,
        cfg.describe(),
        cell_json.join(",\n"),
        headline
    );
    std::fs::write("BENCH_alloc.json", &json).expect("write BENCH_alloc.json");
    println!("wrote BENCH_alloc.json");
}
