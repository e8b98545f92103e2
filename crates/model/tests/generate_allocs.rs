//! `trace::generate` and `trace::peak_live_bytes` are allocation-light: a
//! cold strategy search streams the liveness peak of every config it
//! profiles and builds the trace of every config it plans or replays, so
//! each call's heap traffic is on the search path. A counting global
//! allocator checks that one call makes a small, fixed number of
//! allocations, independent of the layer count (the layer bodies are
//! generated once and expand lazily).

use memo_model::activations::LayerDims;
use memo_model::config::{DType, ModelConfig};
use memo_model::trace::{generate, peak_live_bytes, RematPolicy, TraceParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's allocations and
/// reallocations (so the test harness's own threads do not interfere).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations one `f()` call makes, not counting the
/// drop of its result.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let n = ALLOCS.with(Cell::get) - before;
    drop(out);
    n
}

/// At most this many allocations per `generate` call; the generator used
/// to make 103–179 (one label `String` per distinct label, four formatted
/// labels per classifier chunk, and a hashed open-tensor map).
const BOUND: u64 = 32;

/// At most this many per `peak_live_bytes` call. It makes one, the
/// open-tensor list; the sections' runs live on the stack.
const PEAK_BOUND: u64 = 2;

#[test]
fn generate_makes_few_allocations_independent_of_depth() {
    for policy in [
        RematPolicy::KeepAll,
        RematPolicy::FullRecompute,
        RematPolicy::MemoTokenWise,
    ] {
        for comm_factor in [1, 4] {
            for materialize_logits in [false, true] {
                let params = [1, 32].map(|layers| {
                    let m = ModelConfig {
                        n_layers: layers,
                        ..ModelConfig::gpt_7b()
                    };
                    let dims = LayerDims::new(32 * 1024, &m, DType::BF16);
                    let mut p = TraceParams::new(&m, dims, policy);
                    p.comm_factor = comm_factor;
                    p.materialize_logits = materialize_logits;
                    p
                });
                let case = (policy, comm_factor, materialize_logits);
                let counts = params.each_ref().map(|p| allocs_of(|| generate(p)));
                assert!(
                    counts[0] <= BOUND,
                    "{case:?}: {} allocations per call, bound {BOUND}",
                    counts[0]
                );
                assert_eq!(counts[0], counts[1], "{case:?}: 1 vs 32 layers");
                let peaks = params.each_ref().map(|p| allocs_of(|| peak_live_bytes(p)));
                assert!(
                    peaks[0] <= PEAK_BOUND,
                    "{case:?}: {} allocations per streamed peak, bound {PEAK_BOUND}",
                    peaks[0]
                );
                assert_eq!(peaks[0], peaks[1], "{case:?}: streamed, 1 vs 32 layers");
            }
        }
    }
}
