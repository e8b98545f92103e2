//! Token-chunked offload trace generation (the real MegaTrain shape).
//!
//! This module generates the actual request stream of token-chunked
//! training with real model-derived tensor sizes: each transformer layer
//! processes the sequence in chunks of `chunk_tokens`, every chunk
//! materialises its transient activations (QKV, FlashAttention LSE, FFN
//! intermediates, …) sized from the [`ModelConfig`], frees them LIFO at
//! chunk end, and carries one chunk-output tensor to the matching backward
//! chunk. Layer inputs are the skeletal boundary activations, alive from
//! their forward layer until its backward.
//!
//! The stream is exposed as a visitor ([`for_each_request`]) so callers
//! — `speed_gates`' MegaTrain gate in particular — can feed a
//! `DsaInstanceBuilder` without materialising ~2M [`Request`]s.

use crate::config::{DType, ModelConfig};
use crate::trace::{MemOp, Request, Sym, TensorId};

/// Parameters of a token-chunked offload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedParams {
    pub model: ModelConfig,
    pub dtype: DType,
    /// Full sequence length in tokens.
    pub seq_tokens: u64,
    /// Tokens per chunk; the last chunk takes the remainder.
    pub chunk_tokens: u64,
}

/// Transient tensors a forward chunk of `c` tokens materialises, sized
/// from the model: LayerNorms, fused QKV, FlashAttention LSE (f32 per
/// head), attention/projection outputs, residuals, FFN intermediates.
const FWD_TRANSIENTS: usize = 11;
/// Gradient transients a backward chunk materialises.
const BWD_TRANSIENTS: usize = 10;

impl ChunkedParams {
    /// The MegaTrain regime: 100B-class model at a 1M-token context,
    /// 2048-token chunks — ≥1M liveness intervals from real sizes.
    pub fn megatrain() -> Self {
        ChunkedParams {
            model: ModelConfig::gpt_100b(),
            dtype: DType::F16,
            seq_tokens: 1 << 20,
            chunk_tokens: 2048,
        }
    }

    /// Chunks per layer (ceiling division).
    pub fn chunks(&self) -> u64 {
        self.seq_tokens.div_ceil(self.chunk_tokens)
    }

    /// Exact tensor (liveness-interval) count of the generated trace:
    /// per layer, every chunk allocates its forward transients + one
    /// carried chunk output + its backward gradient transients, plus the
    /// layer's boundary input.
    #[cfg(test)]
    fn intervals(&self) -> u64 {
        let per_chunk = (FWD_TRANSIENTS + 1 + BWD_TRANSIENTS) as u64;
        self.model.n_layers as u64 * (self.chunks() * per_chunk + 1)
    }

    fn transient_sizes(&self, c: u64) -> [u64; FWD_TRANSIENTS] {
        let d = self.dtype.size_bytes();
        let h = self.model.hidden as u64;
        let f = self.model.ffn_hidden as u64;
        let n = self.model.n_heads as u64;
        [
            c * h * d,     // ln1
            3 * c * h * d, // fused qkv
            c * n * 4,     // flash-attention LSE, f32 per head
            c * h * d,     // attention output
            c * h * d,     // output projection
            c * h * d,     // residual 1
            c * h * d,     // ln2
            c * f * d,     // fc1
            c * f * d,     // gelu
            c * h * d,     // fc2
            c * h * d,     // residual 2
        ]
    }

    fn grad_sizes(&self, c: u64) -> [u64; BWD_TRANSIENTS] {
        let d = self.dtype.size_bytes();
        let h = self.model.hidden as u64;
        let f = self.model.ffn_hidden as u64;
        [
            c * h * d,     // d(residual 2)
            c * h * d,     // d(fc2)
            c * f * d,     // d(gelu)
            c * f * d,     // d(fc1)
            c * h * d,     // d(ln2)
            c * h * d,     // d(projection)
            c * h * d,     // d(attention)
            3 * c * h * d, // d(qkv)
            c * h * d,     // d(residual 1)
            c * h * d,     // d(ln1)
        ]
    }
}

struct Emit<'a, F: FnMut(&Request)> {
    next_id: u64,
    sink: &'a mut F,
}

impl<F: FnMut(&Request)> Emit<'_, F> {
    fn malloc(&mut self, bytes: u64) -> TensorId {
        let id = TensorId(self.next_id);
        self.next_id += 1;
        (self.sink)(&Request {
            op: MemOp::Malloc,
            tensor: id,
            bytes,
            label: Sym::EMPTY,
        });
        id
    }

    fn free(&mut self, id: TensorId) {
        (self.sink)(&Request {
            op: MemOp::Free,
            tensor: id,
            bytes: 0,
            label: Sym::EMPTY,
        });
    }
}

/// Stream the chunked fwd+bwd request sequence into `sink`, one
/// `Malloc`/`Free` pair per tensor, chunk transients freed LIFO.
pub fn for_each_request<F: FnMut(&Request)>(params: &ChunkedParams, mut sink: F) {
    assert!(params.chunk_tokens > 0 && params.seq_tokens > 0);
    let d = params.dtype.size_bytes();
    let h = params.model.hidden as u64;
    let n_layers = params.model.n_layers;
    let chunks = params.chunks();
    let mut e = Emit {
        next_id: 0,
        sink: &mut sink,
    };

    let chunk_len = |k: u64| -> u64 {
        if k + 1 == chunks && !params.seq_tokens.is_multiple_of(params.chunk_tokens) {
            params.seq_tokens % params.chunk_tokens
        } else {
            params.chunk_tokens
        }
    };

    // Boundary inputs (skeletal, full sequence) live layer-fwd → layer-bwd.
    let mut boundaries: Vec<TensorId> = Vec::with_capacity(n_layers);
    // carries[layer][chunk]: forward chunk output, freed by its bwd chunk.
    let mut carries: Vec<Vec<TensorId>> = Vec::with_capacity(n_layers);

    for _layer in 0..n_layers {
        boundaries.push(e.malloc(params.seq_tokens * h * d));
        let mut layer_carries = Vec::with_capacity(chunks as usize);
        for k in 0..chunks {
            let c = chunk_len(k);
            let transients: [TensorId; FWD_TRANSIENTS] =
                params.transient_sizes(c).map(|b| e.malloc(b));
            layer_carries.push(e.malloc(c * h * d));
            for id in transients.into_iter().rev() {
                e.free(id);
            }
        }
        carries.push(layer_carries);
    }

    for layer in (0..n_layers).rev() {
        for k in (0..chunks).rev() {
            let c = chunk_len(k);
            let grads: [TensorId; BWD_TRANSIENTS] = params.grad_sizes(c).map(|b| e.malloc(b));
            for id in grads.into_iter().rev() {
                e.free(id);
            }
            e.free(carries[layer][k as usize]);
        }
        e.free(boundaries[layer]);
    }
}

/// Materialise the full request vector (tests and small instances; the
/// MegaTrain preset is ~2M requests — prefer [`for_each_request`]).
#[cfg(test)]
fn generate_chunked(params: &ChunkedParams) -> Vec<Request> {
    let mut out = Vec::with_capacity(2 * params.intervals() as usize);
    for_each_request(params, |r| out.push(*r));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> ChunkedParams {
        ChunkedParams {
            model: ModelConfig::tiny(3, 64, 4, 256),
            dtype: DType::F16,
            seq_tokens: 1000,
            chunk_tokens: 256,
        }
    }

    #[test]
    fn interval_count_is_exact() {
        let p = small();
        let reqs = generate_chunked(&p);
        let mallocs = reqs.iter().filter(|r| r.op == MemOp::Malloc).count() as u64;
        let frees = reqs.iter().filter(|r| r.op == MemOp::Free).count() as u64;
        assert_eq!(mallocs, p.intervals());
        assert_eq!(frees, p.intervals(), "trace must drain");
        assert_eq!(reqs.len() as u64, 2 * p.intervals());
    }

    #[test]
    fn every_tensor_allocated_before_freed_exactly_once() {
        let reqs = generate_chunked(&small());
        let mut live: HashMap<u64, u64> = HashMap::new();
        for r in &reqs {
            match r.op {
                MemOp::Malloc => {
                    assert!(r.bytes > 0);
                    assert!(live.insert(r.tensor.0, r.bytes).is_none());
                }
                MemOp::Free => {
                    assert!(live.remove(&r.tensor.0).is_some());
                }
            }
        }
        assert!(live.is_empty());
    }

    #[test]
    fn sizes_are_model_derived_not_statistical() {
        let p = small();
        let reqs = generate_chunked(&p);
        let d = p.dtype.size_bytes();
        let h = p.model.hidden as u64;
        let f = p.model.ffn_hidden as u64;
        // The distinct malloc sizes must all be explainable by the model
        // dims at full-chunk or remainder-chunk token counts.
        let remainder = p.seq_tokens % p.chunk_tokens;
        let mut legal = std::collections::HashSet::new();
        for c in [p.chunk_tokens, remainder] {
            legal.insert(c * h * d);
            legal.insert(3 * c * h * d);
            legal.insert(c * p.model.n_heads as u64 * 4);
            legal.insert(c * f * d);
        }
        legal.insert(p.seq_tokens * h * d); // boundary
        for r in reqs.iter().filter(|r| r.op == MemOp::Malloc) {
            assert!(legal.contains(&r.bytes), "unexplained size {}", r.bytes);
        }
    }

    #[test]
    fn megatrain_preset_reaches_a_million_intervals() {
        let p = ChunkedParams::megatrain();
        assert_eq!(p.chunks(), 512);
        assert!(p.intervals() >= 1_000_000, "got {}", p.intervals());
    }

    #[test]
    fn peak_live_bytes_bounded_by_chunk_working_set() {
        // Liveness sanity: at any point, live bytes ≤ all boundaries +
        // all carries + one chunk's transient working set.
        let p = small();
        let reqs = generate_chunked(&p);
        let mut live = 0u64;
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        let mut peak = 0u64;
        for r in &reqs {
            match r.op {
                MemOp::Malloc => {
                    sizes.insert(r.tensor.0, r.bytes);
                    live += r.bytes;
                    peak = peak.max(live);
                }
                MemOp::Free => live -= sizes[&r.tensor.0],
            }
        }
        let d = p.dtype.size_bytes();
        let h = p.model.hidden as u64;
        let bound = p.model.n_layers as u64 * p.seq_tokens * h * d // boundaries
            + p.model.n_layers as u64 * p.seq_tokens * h * d // all carries
            + p.transient_sizes(p.chunk_tokens).iter().sum::<u64>()
            + p.grad_sizes(p.chunk_tokens).iter().sum::<u64>();
        assert!(peak <= bound, "peak {peak} exceeds bound {bound}");
    }
}
