//! # memo-parallel — distributed training strategies (§2.3)
//!
//! Cost and memory models for the parallelism dimensions the paper's
//! evaluation sweeps:
//!
//! * **DP** (data parallel) with **ZeRO** stages 1–3,
//! * **TP** (tensor parallel) with Megatron-style **SP** (sequence parallel),
//! * **CP** (context parallel, ring attention),
//! * **PP** (pipeline parallel),
//! * **DeepSpeed-Ulysses** (all-to-all head/sequence parallel, SP degree
//!   bounded by the attention head count).
//!
//! [`strategy`] defines configurations and their validity rules;
//! [`memory`] accounts per-GPU model-state and activation bytes;
//! [`comm`] computes per-layer communication volumes and exposed times;
//! [`cost`] assembles per-layer compute+comm times (used for Figures 1b
//! and 7 directly); [`search`] enumerates valid configurations for a
//! system and picks the best under a caller-provided evaluation.

pub mod comm;
pub mod cost;
pub mod memory;
pub mod pipeline;
pub mod pool;
pub mod search;
pub mod strategy;

pub use strategy::{KvCachePolicy, ParallelConfig, StrategyError, SystemSpec};
