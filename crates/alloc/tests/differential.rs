//! Differential test: the linked-block [`CachingAllocator`] must be
//! **bit-exact** with the original BTree-indexed implementation, preserved
//! verbatim as [`ReferenceCachingAllocator`].
//!
//! Every scenario replays the identical request sequence through both
//! allocators and asserts identical addresses, [`CachingStats`], counters,
//! free-index aggregates and [`AllocEvent`] streams — after *every* request,
//! not just at the end, so a divergence points at the first offending op.

use memo_alloc::caching::CachingAllocator;
use memo_alloc::reference::ReferenceCachingAllocator;
use memo_alloc::{snapshot, AllocError, DeviceAllocator};
use memo_model::activations::LayerDims;
use memo_model::config::{DType, ModelConfig};
use memo_model::trace::{generate, IterationTrace, MemOp, RematPolicy, TensorId, TraceParams};
use memo_parallel::strategy::ParallelConfig;

const MIB: u64 = 1 << 20;

fn tid(n: u64) -> TensorId {
    TensorId(n)
}

/// The two implementations under lockstep execution.
struct Lockstep {
    new: CachingAllocator,
    old: ReferenceCachingAllocator,
}

impl Lockstep {
    fn new(capacity: u64) -> Self {
        let mut new = CachingAllocator::new(capacity);
        let mut old = ReferenceCachingAllocator::new(capacity);
        new.record_events(true);
        old.record_events(true);
        Lockstep { new, old }
    }

    /// Returns whether the (identical) malloc succeeded.
    fn malloc(&mut self, id: TensorId, bytes: u64) -> bool {
        let a = self.new.malloc(id, bytes);
        let b = self.old.malloc(id, bytes);
        assert_eq!(a, b, "malloc(tensor {}, {} B) diverged", id.0, bytes);
        self.check_counters();
        a.is_ok()
    }

    fn free(&mut self, id: TensorId) {
        self.new.free(id);
        self.old.free(id);
        self.check_counters();
    }

    fn check_counters(&self) {
        assert_eq!(self.new.allocated_bytes(), self.old.allocated_bytes());
        assert_eq!(self.new.reserved_bytes(), self.old.reserved_bytes());
        assert_eq!(self.new.reorg_count(), self.old.reorg_count());
        assert_eq!(self.new.stats(), self.old.stats());
        assert_eq!(self.new.total_free_bytes(), self.old.total_free_bytes());
        assert_eq!(self.new.largest_free_block(), self.old.largest_free_block());
        assert_eq!(
            self.new.fragmentation_bytes(),
            self.old.fragmentation_bytes()
        );
        assert_eq!(
            self.new.external_fragmentation(),
            self.old.external_fragmentation()
        );
    }

    fn finish(mut self) {
        let a = self.new.take_events();
        let b = self.old.take_events();
        assert_eq!(a.len(), b.len(), "event counts diverged");
        for (i, (ea, eb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(ea, eb, "event {i} diverged");
        }
    }
}

/// Drive a lockstep pair from an `(op, magnitude)` script, the same shape
/// the in-crate proptest uses: op 0 → malloc of `magnitude` bytes, op 1 →
/// free of a pseudo-randomly chosen live tensor.
fn drive(capacity: u64, script: &[(u8, u64)]) {
    let mut pair = Lockstep::new(capacity);
    let mut live: Vec<TensorId> = Vec::new();
    let mut next = 0u64;
    for &(op, magnitude) in script {
        if op == 0 || live.is_empty() {
            let id = tid(next);
            next += 1;
            if pair.malloc(id, magnitude) {
                live.push(id);
            }
        } else {
            let id = live.swap_remove((magnitude % live.len() as u64) as usize);
            pair.free(id);
        }
    }
    // Drain the survivors too — exercises coalescing into full segments.
    for id in live {
        pair.free(id);
    }
    pair.finish();
}

#[test]
fn identical_on_mixed_pool_churn() {
    // Deterministic interleaving that crosses the small/large pool boundary
    // (1 MiB) and the split thresholds repeatedly.
    let script: Vec<(u8, u64)> = (0..600)
        .map(|i: u64| {
            let op = ((i * 7 + 3) % 5 < 3) as u8 ^ 1; // mallocs ~60% of steps
            let bytes = match i % 7 {
                0 => 700,                 // small pool
                1 => 512 * 1024,          // small pool, large block
                2 => MIB - 512,           // just under the pool boundary
                3 => MIB,                 // exactly the boundary (large pool)
                4 => 3 * MIB + 1,         // rounds up
                5 => 11 * MIB,            // above LARGE_DIRECT_LIMIT
                _ => 30 * MIB + i * 1024, // varying large sizes
            };
            (op, bytes)
        })
        .collect();
    drive(1 << 34, &script);
}

#[test]
fn identical_under_reorg_pressure() {
    // A device barely larger than the working set: frees leave cached
    // segments that must be reorganised away, repeatedly, including
    // multi-victim releases whose event order the ascending-base rule pins.
    let script: Vec<(u8, u64)> = (0..400)
        .map(|i: u64| {
            let op = (i % 3 == 2) as u8;
            let bytes = [24 * MIB, 40 * MIB, 64 * MIB, 96 * MIB][(i % 4) as usize] + i * 512;
            (op, bytes)
        })
        .collect();
    drive(300 * MIB, &script);
    let mut pair = Lockstep::new(200 * MIB);
    // Three cached segments, then one request that forces releasing all
    // three — the exact multi-victim scenario where HashMap iteration order
    // used to leak into the event stream.
    assert!(pair.malloc(tid(0), 64 * MIB));
    assert!(pair.malloc(tid(1), 48 * MIB));
    assert!(pair.malloc(tid(2), 32 * MIB));
    pair.free(tid(0));
    pair.free(tid(1));
    pair.free(tid(2));
    assert!(pair.malloc(tid(3), 150 * MIB));
    pair.free(tid(3));
    pair.finish();
}

#[test]
fn identical_through_oom() {
    // Both must fail at the same request with the same error payload, and
    // agree on every counter afterwards.
    let mut pair = Lockstep::new(100 * MIB);
    assert!(pair.malloc(tid(0), 64 * MIB));
    assert!(!pair.malloc(tid(1), 96 * MIB), "OOM expected on both");
    pair.free(tid(0));
    assert!(pair.malloc(tid(2), 96 * MIB));
    pair.free(tid(2));
    pair.finish();
}

/// Replay `trace` through both implementations, recording everything:
/// the Figure 1(a) series, stats, free-index aggregates and event streams
/// must match.
fn assert_replays_identical(trace: &IterationTrace, capacity: u64, what: &str) {
    let mut new = CachingAllocator::new(capacity);
    let mut old = ReferenceCachingAllocator::new(capacity);
    new.record_events(true);
    old.record_events(true);
    let series_new = snapshot::replay(&mut new, trace);
    let series_old = snapshot::replay(&mut old, trace);
    assert_eq!(series_new, series_old, "{what}: series diverged");
    assert_eq!(new.stats(), old.stats(), "{what}: stats diverged");
    assert_eq!(new.total_free_bytes(), old.total_free_bytes(), "{what}");
    assert_eq!(new.largest_free_block(), old.largest_free_block(), "{what}");
    assert_eq!(
        new.take_events(),
        old.take_events(),
        "{what}: events diverged"
    );
    assert_peak_only_matches(trace, capacity, what);
}

/// The peak-only drive loop against the recorded series, over a warm-up
/// and a steady pass on one allocator (the caching-replay pipeline's
/// shape): the same peak, OOM and reorganisation count on each pass.
fn assert_peak_only_matches(trace: &IterationTrace, capacity: u64, what: &str) {
    let mut series_alloc = CachingAllocator::new(capacity);
    let mut peak_alloc = CachingAllocator::new(capacity);
    for pass in ["warm-up", "steady"] {
        let series = snapshot::replay(&mut series_alloc, trace);
        let (peak, oom) = snapshot::replay_peak(&mut peak_alloc, trace);
        assert_eq!(peak, series.peak_reserved(), "{what} {pass}: peak");
        assert_eq!(oom, series.oom, "{what} {pass}: oom");
        assert_eq!(peak_alloc.reorg_count(), series.reorgs, "{what} {pass}");
        if oom.is_some() {
            break;
        }
    }
}

/// The per-GPU trace the profiler builds for `model` under `cfg`
/// (sequence/tensor-parallel sharding, pipeline-local layers).
fn sharded_trace(
    model: &ModelConfig,
    cfg: &ParallelConfig,
    seq_len: u64,
    policy: RematPolicy,
) -> IterationTrace {
    let dims = LayerDims::new(cfg.tokens_local(seq_len), model, DType::BF16);
    let mut local_model = model.clone();
    local_model.n_layers = cfg.layers_local(model.n_layers);
    let mut params = TraceParams::new(&local_model, dims, policy);
    params.vocab_local = (model.vocab as u64).div_ceil(cfg.tp as u64);
    params.comm_factor = if cfg.sp { cfg.tp as u64 } else { 1 };
    params.ce_chunk_tokens = 8192;
    generate(&params)
}

#[test]
fn identical_on_generated_traces() {
    // Real traces from the model layer: a tiny model on roomy and on
    // reorg-forcing devices, and the 7B per-GPU traces on 8 GPUs
    // (TP4·CP2) at 64K–1M tokens on a roomy 2^42 B device, for both remat
    // policies.
    let policies = [RematPolicy::FullRecompute, RematPolicy::MemoTokenWise];
    let m = ModelConfig::tiny(4, 64, 4, 256);
    let dims = LayerDims::new(512, &m, DType::BF16);
    for policy in policies {
        let trace = generate(&TraceParams::new(&m, dims, policy));
        for capacity in [1u64 << 40, 24 * MIB] {
            assert_replays_identical(&trace, capacity, &format!("tiny {policy:?} @ {capacity} B"));
        }
    }
    let m = ModelConfig::gpt_7b();
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    for policy in policies {
        for seq_k in [64u64, 256, 1024] {
            let trace = sharded_trace(&m, &cfg, seq_k * 1024, policy);
            assert_replays_identical(&trace, 1 << 42, &format!("7B {policy:?} @ {seq_k}K"));
        }
    }
}

/// Run `trace` the way the caching-replay search does, on one lockstep
/// pair: a warm-up iteration, the optimizer's persistent tensors (ids
/// `(1 << 40) + k`, as the pipeline numbers them), then the steady
/// iteration. Returns false at the first OOM, where the pipeline stops.
fn replay_like_the_search(pair: &mut Lockstep, trace: &IterationTrace, persistent: &[u64]) -> bool {
    let iteration = |pair: &mut Lockstep| {
        trace.flatten().all(|r| match r.op {
            MemOp::Malloc => pair.malloc(r.tensor, r.bytes),
            MemOp::Free => {
                pair.free(r.tensor);
                true
            }
        })
    };
    iteration(pair)
        && persistent
            .iter()
            .enumerate()
            .all(|(k, &bytes)| pair.malloc(tid((1 << 40) + k as u64), bytes))
        && iteration(pair)
}

#[test]
fn identical_on_the_search_replay_shape() {
    // The Megatron-LM (FullRecompute) and keep-all traces of 7B on 8 GPUs
    // (TP4·CP2), on a roomy device and on devices cut to fractions of the
    // roomy run's peak: OOMs land in the warm-up, in the persistent
    // tensors and in the steady iteration, and some runs survive only by
    // reorganising.
    let m = ModelConfig::gpt_7b();
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let persistent = memo_parallel::memory::persistent_tensor_sizes(&m, &cfg);
    let (mut reorganised, mut ooms) = (0, 0);
    for policy in [RematPolicy::FullRecompute, RematPolicy::KeepAll] {
        for seq_k in [64u64, 256, 1024] {
            let trace = sharded_trace(&m, &cfg, seq_k * 1024, policy);
            let mut roomy = Lockstep::new(1 << 42);
            assert!(replay_like_the_search(&mut roomy, &trace, &persistent));
            let peak = roomy.new.stats().peak_reserved;
            roomy.finish();
            for percent in [99u64, 97, 90, 60, 40] {
                let mut pair = Lockstep::new(peak / 100 * percent);
                if replay_like_the_search(&mut pair, &trace, &persistent) {
                    reorganised += (pair.new.reorg_count() > 0) as usize;
                } else {
                    ooms += 1;
                }
                pair.finish();
            }
        }
    }
    assert!(reorganised > 0, "no run survived by reorganising");
    assert!(ooms > 0, "no capacity forced an OOM");
}

/// `snapshot::replay_training`, the caching-replay search's whole replay
/// (warm-up, persistent tensors, steady iteration), on `new`, a fresh or
/// reset device of `capacity`: the handle path against the reference,
/// which serves the same requests by `TensorId`. Both must agree on the
/// steady peak and reorganisations or the OOM, on the stats and on the
/// full event stream.
fn assert_training_replays_identical(
    new: &mut CachingAllocator,
    trace: &IterationTrace,
    persistent: &[u64],
    capacity: u64,
    what: &str,
) -> Result<(u64, u64), AllocError> {
    let mut old = ReferenceCachingAllocator::new(capacity);
    new.record_events(true);
    old.record_events(true);
    let replayed = snapshot::replay_training(new, trace, persistent, |_| ());
    let reference = snapshot::replay_training(&mut old, trace, persistent, |_| ());
    assert_eq!(replayed, reference, "{what}: outcome diverged");
    assert_eq!(new.reorg_count(), old.reorg_count(), "{what}: reorgs");
    assert_eq!(new.stats(), old.stats(), "{what}: stats diverged");
    assert_eq!(
        new.take_events(),
        old.take_events(),
        "{what}: events diverged"
    );
    replayed
}

/// The remat policies of the training replay tests.
const TRAINING_POLICIES: [RematPolicy; 3] = [
    RematPolicy::KeepAll,
    RematPolicy::FullRecompute,
    RematPolicy::MemoTokenWise,
];

/// A device no training replay fills.
const ROOMY: u64 = 1 << 42;

/// Devices cut to these fractions (‰) of a roomy replay's steady peak: one
/// survives only by reorganising, and one runs out of memory.
const DEVICE_PERMILLE: [u64; 7] = [1000, 995, 990, 980, 960, 900, 600];

#[test]
fn identical_on_the_training_replay_entry_point() {
    // All three remat policies of 7B on 8 GPUs (TP4·CP2) at 1M: a roomy
    // device, then devices cut to fractions of the roomy run's steady peak
    // until one survives only by reorganising and one runs out of memory.
    let m = ModelConfig::gpt_7b();
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let persistent = memo_parallel::memory::persistent_tensor_sizes(&m, &cfg);
    for policy in TRAINING_POLICIES {
        let trace = sharded_trace(&m, &cfg, 1 << 20, policy);
        let what = |capacity: u64| format!("7B {policy:?} @ {capacity} B");
        let replay = |capacity: u64| {
            let mut fresh = CachingAllocator::new(capacity);
            assert_training_replays_identical(
                &mut fresh,
                &trace,
                &persistent,
                capacity,
                &what(capacity),
            )
        };
        let (peak, reorgs) = replay(ROOMY).expect("the roomy device fits");
        assert_eq!(reorgs, 0, "the roomy device reorganises");
        let (mut reorganised, mut oom) = (false, false);
        for permille in DEVICE_PERMILLE {
            let capacity = peak / 1000 * permille;
            match replay(capacity) {
                Ok((_, reorgs)) => reorganised |= reorgs > 0,
                Err(_) => oom = true,
            }
            if reorganised && oom {
                break;
            }
        }
        assert!(
            reorganised,
            "{policy:?}: no device survived by reorganising"
        );
        assert!(oom, "{policy:?}: no device ran out of memory");
    }
}

mod random_scripts {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // The satellite's acceptance bar: arbitrary malloc/free sequences,
        // identical addresses, stats and event streams on both a roomy and
        // a reorg-prone device.
        #[test]
        fn lockstep_equivalence(
            script in prop::collection::vec((0u8..=1, 1u64..96 * MIB), 1..250),
            roomy in 0u8..=1,
        ) {
            let capacity = if roomy == 1 { 1 << 36 } else { 256 * MIB };
            drive(capacity, &script);
        }

        // Devices of a few segments: nearly every large request releases
        // cached segments, the compaction moves the survivors down, and
        // block nodes are recycled on every split and merge. Sizes cover
        // the small pool, large blocks carved from 20 MiB segments, and
        // exact-size segments.
        #[test]
        fn lockstep_on_tiny_devices(
            raw in prop::collection::vec((0u8..=2, 0u8..=2, 1u64..8 * MIB), 1..300),
            capacity in 22 * MIB..72 * MIB,
        ) {
            let script: Vec<(u8, u64)> = raw
                .iter()
                .map(|&(op, scale, bytes)| {
                    let bytes = match scale {
                        0 => bytes % MIB + 1,
                        1 => bytes,
                        _ => 3 * bytes,
                    };
                    ((op == 2) as u8, bytes)
                })
                .collect();
            drive(capacity, &script);
        }
    }
}

#[test]
fn a_reset_workspace_replays_like_a_fresh_allocator() {
    // The training replays of `identical_on_the_training_replay_entry_point`
    // (three policies; roomy, reorganising and OOM devices) on one
    // workspace, reset before each, the way the search reuses one: each
    // must equal a fresh allocator's replay and the reference's, outcome,
    // stats and events. Some replays follow an OOM-aborted one, which left
    // tensors live in the workspace.
    let m = ModelConfig::gpt_7b();
    let cfg = ParallelConfig::megatron(4, 2, 1, 1);
    let persistent = memo_parallel::memory::persistent_tensor_sizes(&m, &cfg);
    let mut workspace = CachingAllocator::new(0);
    let (mut replays, mut after_oom, mut last_oom) = (0, 0, false);
    let mut replay = |trace: &IterationTrace, capacity: u64, what: &str| {
        workspace.reset(capacity);
        let reused = assert_training_replays_identical(
            &mut workspace,
            trace,
            &persistent,
            capacity,
            &format!("{what}, reset"),
        );
        let mut fresh = CachingAllocator::new(capacity);
        let fresh_out =
            assert_training_replays_identical(&mut fresh, trace, &persistent, capacity, what);
        assert_eq!(reused, fresh_out, "{what}: outcome");
        assert_eq!(workspace.stats(), fresh.stats(), "{what}: stats");
        assert_eq!(
            workspace.allocated_bytes(),
            fresh.allocated_bytes(),
            "{what}"
        );
        assert_eq!(workspace.reserved_bytes(), fresh.reserved_bytes(), "{what}");
        // The events carry no address: one more malloc must land at the
        // same one.
        let probe = tid(u64::MAX);
        let at = |a: &mut CachingAllocator| a.malloc(probe, 3 * MIB);
        assert_eq!(at(&mut workspace), at(&mut fresh), "{what}: next address");
        replays += 1;
        after_oom += usize::from(last_oom);
        last_oom = reused.is_err();
        if last_oom {
            assert!(workspace.allocated_bytes() > 0, "{what}: nothing left live");
        }
        reused
    };
    let mut traces = Vec::new();
    for policy in TRAINING_POLICIES {
        let trace = sharded_trace(&m, &cfg, 1 << 20, policy);
        let what = |capacity: u64| format!("7B {policy:?} @ {capacity} B");
        let (peak, _) = replay(&trace, ROOMY, &what(ROOMY)).expect("the roomy device fits");
        for permille in DEVICE_PERMILLE {
            let capacity = peak / 1000 * permille;
            let _ = replay(&trace, capacity, &what(capacity));
        }
        traces.push(trace);
    }
    // One more roomy replay, after the last policy's smallest device.
    replay(&traces[0], ROOMY, "7B KeepAll, roomy again").expect("the roomy device fits");
    assert!(
        after_oom >= 3,
        "{after_oom} of {replays} replays follow an OOM"
    );
}
