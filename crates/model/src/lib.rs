//! # memo-model — what the training job looks like
//!
//! Static knowledge about the trained model, independent of any execution
//! strategy:
//!
//! * [`config`] — the GPT variants of the paper's Table 2 (7B/13B/30B/65B),
//!   parameter counting and hyper-parameters;
//! * [`flops`] — the paper's FLOP formula `6·s·P + 6·n·h·s²` (§5.1) and its
//!   per-layer / per-phase decomposition;
//! * [`activations`] — the skeletal-activation catalog of Figure 5 (16·bsh
//!   elements per transformer layer; the FlashAttention output is exactly
//!   1/16 = 6.25 % of it) plus the transient-activation catalog of §3.3;
//! * [`trace`] — generation of the `malloc/free tensor_id size` memory
//!   request sequences of Figures 4 and 9, segmented per layer and phase,
//!   with each layer's requests stored once as a forward and a backward
//!   body that expand lazily;
//! * [`chunked`] — the token-chunked offload request stream (MegaTrain
//!   shape) with real model-derived sizes, streamed via a visitor;
//! * [`decode`] — decode-phase (serving) traces: per-step KV append,
//!   continuous-batching arrivals/departures on a virtual step clock;
//! * [`hash`] — the Fx hasher shared by the allocator's and the DSA
//!   builder's hot-path maps, the trace and timeline label table and the
//!   profile and segment caches, plus the caches' shard lock;
//! * [`stats`] — the thread-local stats scope that attributes cache and
//!   pool counts to the request that caused them.

pub mod activations;
pub mod chunked;
pub mod config;
pub mod decode;
pub mod flops;
pub mod hash;
pub mod io;
pub mod stats;
pub mod trace;
