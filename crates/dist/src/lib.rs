//! # memo-dist — whole-cluster simulation
//!
//! The executors in `memo-core` model one *representative* GPU, which is
//! exact when every GPU is identical and perfectly synchronous. This crate
//! simulates **all** ranks explicitly:
//!
//! * [`groups`] — the rank grid: world = DP × PP × CP × TP (TP fastest,
//!   Megatron rank order) and the communication groups along each axis;
//! * `cluster` — per-rank timelines plus *collectives* that synchronise
//!   member ranks (a collective starts when its slowest member arrives —
//!   the mechanism by which stragglers poison synchronous training);
//! * [`iteration`] — a MEMO-style iteration run across every rank, with
//!   optional per-(rank, layer) compute jitter.
//!
//! Two things fall out: a machine-checked proof that the representative-GPU
//! model equals the full simulation in the homogeneous case, and a straggler
//! study (the `straggler` bench binary) showing how collective-heavy
//! strategies amplify compute-time variance — context for the paper's
//! "large TP/SP sizes introduce significant communication overheads" (§5.2).

mod cluster;
pub mod groups;
pub mod iteration;
