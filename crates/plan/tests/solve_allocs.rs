//! Whole-trace planning of a token-chunked trace runs in linear memory
//! with a small constant: the skyline keeps a stack of segments instead of
//! span-sized arrays, the liveness bound sums in `u64` over shifted
//! positions instead of copying them, and a builder-made instance brings
//! its bound and death order along, so the solver allocates neither. The
//! builder's own scratch follows the open tensors, not the id range. A
//! counting global allocator checks the bytes each step allocates.

use memo_model::chunked::{for_each_request, ChunkedParams};
use memo_model::config::{DType, ModelConfig};
use memo_model::trace::{MemOp, Request, Sym, TensorId};
use memo_plan::dispatch::{self, DispatchOptions, PlannerBackend};
use memo_plan::{DsaInstance, DsaInstanceBuilder, DsaTensor};
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

/// At most this many bytes per interval for one solve of an instance
/// made by `DsaInstance::new`: the offsets (8) and the liveness sweep's
/// `u64` deltas over at most `2·n + 2` slots (16), plus room for the
/// skyline's stack; it reads ~25.5. Span-sized scratch (a copy of the
/// positions, 128-bit deltas, a height per position and an order vector)
/// read ~80.
const BYTES_PER_INTERVAL: u64 = 32;

/// At most this many bytes per interval for one solve of a builder-made
/// instance, which needs no liveness sweep: the offsets (8) and the
/// skyline's stack; it reads ~9.
const BUILT_BYTES_PER_INTERVAL: u64 = 16;

/// The builder's allocations beyond its output `Vec` are its spill table
/// (the nursery is a fixed ring inside the builder): 24-byte slots, at
/// least 3/8 full once it has doubled, and the tables it outgrew sum to
/// less than the last one, so under 128 bytes per peak open tensor, plus
/// a little for the first tables. It reads ~94 on the chunked traces,
/// whose long-lived carries spill, and 0 on a window that stays in the
/// ring. A table indexed by the id range would grow with every id
/// instead.
const OPEN_BYTES_PER_TENSOR: u64 = 128;
const OPEN_BYTES_SLACK: u64 = 64 * 1024;

fn params(layers: usize, seq_tokens: u64, chunk_tokens: u64) -> ChunkedParams {
    ChunkedParams {
        model: ModelConfig::tiny(layers, 256, 4, 512),
        dtype: DType::F16,
        seq_tokens,
        chunk_tokens,
    }
}

const SHAPES: [(usize, u64, u64); 3] = [(4, 64 * 1024, 256), (8, 100_000, 384), (2, 50_000, 97)];

fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Solve `inst`, checking that it plans at the bound within
/// `per_interval` bytes.
fn check_solve(inst: &DsaInstance, per_interval: u64, case: &str) {
    let opts = DispatchOptions::default();
    let (sol, bytes) = allocated(|| dispatch::solve(inst, &opts));
    assert_eq!(sol.backend, PlannerBackend::BestFit);
    assert!(sol.optimal);
    let per = bytes as f64 / inst.len() as f64;
    assert!(
        bytes <= per_interval * inst.len() as u64,
        "{case}: {bytes} bytes for {} intervals ({per:.1} per interval, bound {per_interval})",
        inst.len()
    );
}

#[test]
fn chunked_solve_allocates_a_bounded_amount_per_interval() {
    for (layers, seq, chunk) in SHAPES {
        let mut b = DsaInstanceBuilder::new();
        for_each_request(&params(layers, seq, chunk), |r| b.push(r));
        let built = b.finish().expect("chunked traces are balanced");
        let case = format!("{layers}x{seq}/{chunk}");
        check_solve(&built, BUILT_BYTES_PER_INTERVAL, &format!("{case} built"));
        let plain = DsaInstance::new(built.tensors().to_vec());
        check_solve(&plain, BYTES_PER_INTERVAL, &format!("{case} new"));
    }
}

/// The bytes a builder fed by `push` allocates beyond its output, and
/// the peak count of open tensors: the bytes of the build, less those of
/// the stream alone and of a `Vec` grown to the instance's length.
fn builder_scratch(push: impl Fn(&mut dyn FnMut(&Request))) -> (u64, u64) {
    let (mut open, mut peak) = (0u64, 0u64);
    let ((), stream) = allocated(|| {
        push(&mut |r| {
            match r.op {
                MemOp::Malloc => open += 1,
                MemOp::Free => open -= 1,
            }
            peak = peak.max(open);
        })
    });
    let (inst, bytes) = allocated(|| {
        let mut b = DsaInstanceBuilder::new();
        push(&mut |r| b.push(r));
        b.finish().expect("balanced stream")
    });
    let (_, output) = allocated(|| {
        let mut v: Vec<DsaTensor> = Vec::new();
        for &t in inst.tensors() {
            v.push(std::hint::black_box(t));
        }
        v
    });
    (bytes - stream - output, peak)
}

fn req(op: MemOp, id: u64) -> Request {
    Request {
        op,
        tensor: TensorId(id),
        bytes: 64,
        label: Sym::EMPTY,
    }
}

#[test]
fn builder_scratch_follows_the_open_tensors() {
    let window = |push: &mut dyn FnMut(&Request)| {
        // 200K sequential ids, at most eight open at a time.
        for id in 0..200_000u64 {
            push(&req(MemOp::Malloc, id));
            if id >= 7 {
                push(&req(MemOp::Free, id - 7));
            }
        }
        (200_000 - 7..200_000).for_each(|id| push(&req(MemOp::Free, id)));
    };
    let spilling = |push: &mut dyn FnMut(&Request)| {
        // The same window, but every 64th id stays open for 2000 ids, so
        // it spills from the nursery to the table.
        let long = |id: u64| id.is_multiple_of(64);
        for id in 0..200_000u64 {
            push(&req(MemOp::Malloc, id));
            if id >= 7 && !long(id - 7) {
                push(&req(MemOp::Free, id - 7));
            }
            if id >= 2000 && long(id - 2000) {
                push(&req(MemOp::Free, id - 2000));
            }
        }
        (200_000 - 2000..200_000)
            .filter(|&id| long(id) || id >= 200_000 - 7)
            .for_each(|id| push(&req(MemOp::Free, id)));
    };
    let mut cases = vec![
        ("window".to_string(), builder_scratch(window)),
        ("spilling window".to_string(), builder_scratch(spilling)),
    ];
    for (layers, seq, chunk) in SHAPES {
        let p = params(layers, seq, chunk);
        let scratch = builder_scratch(|push| for_each_request(&p, push));
        cases.push((format!("{layers}x{seq}/{chunk}"), scratch));
    }
    for (case, (bytes, peak_open)) in cases {
        let bound = OPEN_BYTES_PER_TENSOR * peak_open + OPEN_BYTES_SLACK;
        assert!(
            bytes <= bound,
            "{case}: {bytes} scratch bytes for {peak_open} peak open tensors (bound {bound})"
        );
    }
}
