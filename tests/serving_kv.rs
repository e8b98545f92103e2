//! Serving KV cells: 7B/13B decode traces at 16K–256K context, the cells
//! whose replay speed `speed_gates` times (`memo_bench::inputs::kv_cell`).
//!
//! On every cell the two-level-bitmap [`PagedKvAllocator`] is replayed in
//! lockstep with the linear-scan [`PagedKvReference`], and full-context
//! sequences are grown on fresh allocators until the first OOM: paging
//! must hold strictly more of them than the caching allocator's realloc
//! pattern, whose old and grown tensors are live at once.

use memo::alloc::caching::CachingAllocator;
use memo::alloc::paged::{PagedKvAllocator, PagedKvReference};
use memo::alloc::DeviceAllocator;
use memo::model::config::ModelConfig;
use memo::model::decode::DecodeEvent;
use memo::model::trace::TensorId;
use memo_bench::inputs::{kv_cell, KvCell};

/// Concurrency probes grow sequences in chunks of this many tokens.
const PROBE_CHUNK_TOKENS: u64 = 1024;

/// Both allocators under one op sequence; a sequence whose append fails
/// is released (preempted) and ignored from then on.
struct Lockstep {
    fast: PagedKvAllocator,
    refa: PagedKvReference,
    dead: Vec<bool>,
}

impl Lockstep {
    fn append(&mut self, seq: u32, bytes: u64, what: &str) {
        let a = self.fast.append_bytes(seq, bytes);
        let b = self.refa.append_bytes(seq, bytes);
        assert_eq!(a, b, "{what}: append({seq}, {bytes}) diverged");
        if a.is_err() {
            self.release(seq);
        }
    }

    fn release(&mut self, seq: u32) {
        self.fast.release(seq).unwrap();
        self.refa.release(seq).unwrap();
        self.dead[seq as usize] = true;
    }
}

/// Lockstep replay of the cell's trace: free-page counts agree at every
/// step boundary and the final snapshots (page tables, counters, stats)
/// are identical.
fn assert_lockstep_replay(cell: &KvCell, what: &str) {
    let kv = cell.kv();
    let mut pair = Lockstep {
        fast: PagedKvAllocator::new(cell.device, cell.page),
        refa: PagedKvReference::new(cell.device, cell.page),
        dead: vec![false; cell.trace.params.arrivals],
    };
    for ev in &cell.trace.events {
        match *ev {
            DecodeEvent::Arrive { seq, prompt_tokens } => {
                pair.fast.admit(seq).unwrap();
                pair.refa.admit(seq).unwrap();
                pair.append(seq, prompt_tokens * kv, what);
            }
            DecodeEvent::Append { seq } if !pair.dead[seq as usize] => pair.append(seq, kv, what),
            DecodeEvent::Depart { seq } if !pair.dead[seq as usize] => pair.release(seq),
            DecodeEvent::Append { .. } | DecodeEvent::Depart { .. } => {}
            DecodeEvent::StepEnd => {
                assert_eq!(pair.fast.free_pages(), pair.refa.free_pages(), "{what}");
                assert_eq!(pair.fast.pages_in_use(), pair.refa.pages_in_use(), "{what}");
            }
        }
    }
    assert_eq!(
        pair.fast.snapshot(),
        pair.refa.snapshot(),
        "{what}: final snapshots"
    );
}

/// Largest `n` (up to 64) for which `n` sequences grow to full context
/// round-robin in `PROBE_CHUNK_TOKENS` chunks without an OOM; `grow`
/// extends sequence `s` from `held` to `held + step` tokens.
fn max_sequences<A>(
    cell: &KvCell,
    mut fresh: impl FnMut(u32) -> A,
    mut grow: impl FnMut(&mut A, usize, u64, u64) -> bool,
) -> u32 {
    let context = cell.context_tokens();
    for n in 1..=64u32 {
        let mut a = fresh(n);
        let mut held = vec![0u64; n as usize];
        while held.iter().any(|&h| h < context) {
            for (s, h) in held.iter_mut().enumerate() {
                if *h >= context {
                    continue;
                }
                let step = PROBE_CHUNK_TOKENS.min(context - *h);
                if !grow(&mut a, s, *h, step) {
                    return n - 1;
                }
                *h += step;
            }
        }
    }
    64
}

fn paged_max_sequences(cell: &KvCell) -> u32 {
    let kv = cell.kv();
    max_sequences(
        cell,
        |n| {
            let mut a = PagedKvAllocator::new(cell.device, cell.page);
            for s in 0..n {
                a.admit(s).unwrap();
            }
            a
        },
        |a, s, _, step| a.append_bytes(s as u32, step * kv).is_ok(),
    )
}

/// The caching allocator holds one tensor per sequence; growing mallocs
/// the grown tensor before freeing the old one.
fn caching_max_sequences(cell: &KvCell) -> u32 {
    let kv = cell.kv();
    let mut next_id = 0u64;
    max_sequences(
        cell,
        |n| (CachingAllocator::new(cell.device), vec![None; n as usize]),
        |(a, ids): &mut (CachingAllocator, Vec<Option<u64>>), s, held, step| {
            next_id += 1;
            if a.malloc(TensorId(next_id), (held + step) * kv).is_err() {
                return false;
            }
            if let Some(old) = ids[s].replace(next_id) {
                a.free(TensorId(old));
            }
            true
        },
    )
}

/// Every context of one model; one test per model so the two run on
/// parallel test threads.
fn check_cells(model: ModelConfig) {
    for context in [16u64 << 10, 64 << 10, 256 << 10] {
        let what = format!("{}@{}k", model.name, context >> 10);
        let cell = kv_cell(model.clone(), context);
        assert_lockstep_replay(&cell, &what);
        let (paged, caching) = (paged_max_sequences(&cell), caching_max_sequences(&cell));
        assert!(
            paged > caching,
            "{what}: paged max concurrency {paged} not strictly above caching {caching}"
        );
    }
}

#[test]
fn paged_kv_matches_its_reference_and_outlasts_caching_7b() {
    check_cells(ModelConfig::gpt_7b());
}

#[test]
fn paged_kv_matches_its_reference_and_outlasts_caching_13b() {
    check_cells(ModelConfig::gpt_13b());
}
