//! Synthetic MegaTrain-class DSA instances for the scale tests.
//!
//! Real iteration traces top out at a few thousand intervals because
//! per-layer request *counts* are fixed (only sizes scale with sequence
//! length). The MegaTrain regime (PAPERS.md: 100B+ parameters on few GPUs
//! via aggressive NVMe offload) is different: token-wise chunking across
//! hundreds of layers and hundreds of chunks per layer yields *millions*
//! of transient intervals per iteration. This module generates that shape
//! directly through the streaming `DsaInstanceBuilder`, so tests can
//! stress the boxing path at scales where exact search is infeasible. The
//! real token-chunked traces (`memo_model::chunked::ChunkedParams`) are
//! stack-shaped and plan through the skyline certificate instead, so this
//! generator is what keeps a mid-scale instance on the boxing backend.

use memo_model::trace::{MemOp, Request, Sym, TensorId};
use memo_plan::dsa::{DsaInstance, DsaInstanceBuilder};

/// Parameters of the synthetic chunked fwd/bwd workload.
#[derive(Debug, Clone, Copy)]
pub struct MegaTrainParams {
    /// Transformer layers.
    pub layers: usize,
    /// Token chunks per layer segment.
    pub chunks_per_layer: usize,
    /// Short-lived transients per chunk (attention/MLP temporaries).
    pub transients_per_chunk: usize,
    /// Base transient size; individual transients span four height
    /// classes (`base << 0..=3`).
    pub transient_bytes: u64,
    /// Per-layer boundary activation, live from its forward segment until
    /// its backward segment (the checkpointing-shaped resident load).
    pub resident_bytes: u64,
    /// Deterministic size-jitter seed.
    pub seed: u64,
}

impl MegaTrainParams {
    /// Expected interval count for these parameters.
    pub fn intervals(&self) -> usize {
        self.layers * self.chunks_per_layer * (self.transients_per_chunk + 1) * 2 + self.layers
    }
}

struct Gen {
    builder: DsaInstanceBuilder,
    next_id: u64,
    state: u64,
}

impl Gen {
    fn rng(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn malloc(&mut self, bytes: u64) -> TensorId {
        let id = TensorId(self.next_id);
        self.next_id += 1;
        self.builder.push(&Request {
            op: MemOp::Malloc,
            tensor: id,
            bytes,
            label: Sym::EMPTY,
        });
        id
    }

    fn free(&mut self, id: TensorId) {
        self.builder.push(&Request {
            op: MemOp::Free,
            tensor: id,
            bytes: 0,
            label: Sym::EMPTY,
        });
    }
}

/// Generate the synthetic instance. One "segment" per layer direction:
/// each chunk allocates `transients_per_chunk` jittered-size transients
/// (freed LIFO at chunk end) plus one carry tensor freed in the next
/// chunk, so consecutive chunks overlap; each layer's boundary activation
/// is born in its forward segment and freed in its backward segment.
pub fn megatrain_instance(p: &MegaTrainParams) -> DsaInstance {
    let mut g = Gen {
        builder: DsaInstanceBuilder::new(),
        next_id: 0,
        state: p.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
    };
    let mut boundaries: Vec<TensorId> = Vec::with_capacity(p.layers);

    let run_segment = |g: &mut Gen| {
        let mut carry: Option<TensorId> = None;
        for _ in 0..p.chunks_per_layer {
            let mut chunk: Vec<TensorId> = Vec::with_capacity(p.transients_per_chunk);
            for _ in 0..p.transients_per_chunk {
                let size = p.transient_bytes << (g.rng() % 4);
                chunk.push(g.malloc(size));
            }
            if let Some(prev) = carry.take() {
                g.free(prev);
            }
            carry = Some(g.malloc(p.transient_bytes));
            for id in chunk.into_iter().rev() {
                g.free(id);
            }
        }
        if let Some(prev) = carry.take() {
            g.free(prev);
        }
    };

    for _ in 0..p.layers {
        boundaries.push(g.malloc(p.resident_bytes));
        run_segment(&mut g);
    }
    for l in (0..p.layers).rev() {
        run_segment(&mut g);
        g.free(boundaries[l]);
    }
    g.builder
        .finish()
        .expect("generator closes every tensor it opens")
}

#[test]
fn small_instance_has_expected_shape() {
    let p = MegaTrainParams {
        layers: 3,
        chunks_per_layer: 4,
        transients_per_chunk: 2,
        transient_bytes: 1 << 10,
        resident_bytes: 1 << 16,
        seed: 7,
    };
    let inst = megatrain_instance(&p);
    assert_eq!(inst.len(), p.intervals());
    // All boundaries live at the fwd/bwd turning point.
    assert!(inst.lower_bound() >= p.layers as u64 * p.resident_bytes);
    let sol = memo_plan::boxing::solve(&inst);
    sol.assignment.validate(&inst).unwrap();
    assert!(sol.assignment.peak <= sol.guarantee);
}
