//! # memo-hal — the hardware substrate
//!
//! MEMO (SIGMOD 2025) was evaluated on an A800 GPU cluster. This crate replaces
//! that hardware with a **deterministic discrete-event simulator** that models
//! exactly the quantities MEMO's scheduling decisions depend on:
//!
//! * GPU compute throughput (FLOPs at a kernel-dependent efficiency),
//! * CPU–GPU PCIe transfers (with switch sharing, as in real 8-GPU servers),
//! * intra-node NVLink and inter-node InfiniBand collectives,
//! * CUDA-style *streams* (serial lanes) and *events* (cross-stream ordering),
//! * device (HBM) and host (DRAM) memory capacities.
//!
//! The simulation is a *timeline* model: every stream is a serial lane whose
//! cursor advances as operations are enqueued; cross-stream dependencies are
//! expressed by recording an [`Event`](engine::EventId) on one stream and
//! waiting on it from another. Because LLM training iterations are static
//! graphs (the observation that motivates MEMO's memory planning), this fully
//! captures the paper's three-stream compute/offload/prefetch overlap.
//!
//! All hardware constants live in [`calib::Calibration`] with defaults taken
//! from the paper's experimental setup (§5.1).

pub mod calib;
pub mod engine;
mod hierarchy;
pub mod time;
pub mod timeline;

pub use hierarchy::{MemoryHierarchy, TierSharing, TierSpec};
