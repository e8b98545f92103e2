//! Whole-trace planning of a token-chunked trace runs in linear memory
//! with a small constant: the skyline keeps a stack of segments instead of
//! span-sized arrays, and the liveness bound sums in `u64` over shifted
//! positions instead of copying them. A counting global allocator checks
//! the bytes one `dispatch::solve` call allocates per interval.

use memo_model::chunked::{for_each_request, ChunkedParams};
use memo_model::config::{DType, ModelConfig};
use memo_plan::dispatch::{self, DispatchOptions, PlannerBackend};
use memo_plan::{DsaInstance, DsaInstanceBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes the calling thread allocates
/// (a reallocation counts its growth), so the test harness's own threads
/// do not interfere.
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// At most this many bytes per interval for one solve: the offsets (8)
/// and the liveness sweep's `u64` deltas over at most `2·n + 2` slots
/// (16), plus room for the skyline's stack; it reads ~25.5. Span-sized
/// scratch (a copy of the positions, 128-bit deltas, a height per
/// position and an order vector) read ~80.
const BYTES_PER_INTERVAL: u64 = 32;

fn chunked(layers: usize, seq_tokens: u64, chunk_tokens: u64) -> DsaInstance {
    let p = ChunkedParams {
        model: ModelConfig::tiny(layers, 256, 4, 512),
        dtype: DType::F16,
        seq_tokens,
        chunk_tokens,
    };
    let mut b = DsaInstanceBuilder::new();
    for_each_request(&p, |r| b.push(r));
    b.finish().expect("chunked traces are balanced")
}

#[test]
fn chunked_solve_allocates_a_bounded_amount_per_interval() {
    for (layers, seq, chunk) in [(4, 64 * 1024, 256), (8, 100_000, 384), (2, 50_000, 97)] {
        let inst = chunked(layers, seq, chunk);
        let opts = DispatchOptions::default();
        let before = BYTES.with(Cell::get);
        let sol = dispatch::solve(&inst, &opts);
        let bytes = BYTES.with(Cell::get) - before;
        assert_eq!(sol.backend, PlannerBackend::BestFit);
        assert!(sol.optimal);
        let per = bytes as f64 / inst.len() as f64;
        assert!(
            bytes <= BYTES_PER_INTERVAL * inst.len() as u64,
            "{layers}x{seq}/{chunk}: {bytes} bytes for {} intervals ({per:.1} per interval, \
             bound {BYTES_PER_INTERVAL})",
            inst.len()
        );
    }
}
