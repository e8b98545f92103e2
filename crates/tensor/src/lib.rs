//! # memo-tensor — numerical validation substrate
//!
//! The paper's convergence experiment (Figure 12d) trains a 7B model and
//! shows that MEMO's loss curves for α ∈ {0, 0.125, 0.25, 0.5, 1} coincide
//! with Megatron-LM's — i.e. token-wise recomputation + swapping is
//! numerically transparent. Convergence equivalence is a property of the
//! *rematerialisation mechanism*, not of model scale, so we validate it with
//! a from-scratch CPU training stack whose activation store really discards,
//! really re-computes, and really round-trips activation rows through a
//! simulated host buffer:
//!
//! * `ops` — matmul, LayerNorm, GELU, embedding, fused softmax
//!   cross-entropy, each with hand-written backward passes;
//! * `attention` — causal multi-head attention in the FlashAttention
//!   style: streaming softmax forward that keeps only the output and the
//!   per-row log-sum-exp, backward by recomputing probabilities;
//! * [`store`] — the activation store with the three policies (KeepAll /
//!   FullRecompute / TokenWise{α}) mirroring `memo_model`'s skeletal
//!   catalog;
//! * [`layer`], [`gpt`] — a small decoder-only GPT with manual backward;
//! * `adam` — the optimizer;
//! * [`train`] — deterministic synthetic data and the training loop used to
//!   regenerate Figure 12(d).
//!
//! Everything is `f32`, single-threaded and fully deterministic, so the
//! equivalence assertions are *bitwise*.

mod adam;
mod attention;
pub mod gpt;
pub mod layer;
pub(crate) mod ops;
pub mod store;
pub mod train;

pub use store::Policy;
