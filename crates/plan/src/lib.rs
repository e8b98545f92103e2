//! # memo-plan — static memory planning
//!
//! The paper's second contribution (§4.2): eliminate GPU memory
//! fragmentation by *planning* every activation tensor's address before
//! training. The underlying problem is offline **Dynamic Storage
//! Allocation** (DSA): given tensors with fixed lifespans and sizes, assign
//! addresses minimising peak memory such that temporally-overlapping tensors
//! never overlap spatially. DSA is NP-hard; the paper formulates it as a MIP
//! and makes it tractable with a **bi-level decomposition** that exploits the
//! identical structure of transformer layers (Figure 8).
//!
//! This crate provides:
//!
//! * [`dsa`] — problem representation, lifespan analysis, liveness lower
//!   bound, assignment validation;
//! * [`heuristic`] — best-fit placement over several orderings (the fallback
//!   for instances too large for exact search), plus an insertion local
//!   search over those orderings for small instances;
//! * [`bnb`] — an exact branch-and-bound solver for the MIP (canonical-order
//!   search with a skyline bound; proves level-1 layer instances optimal,
//!   and returns its best-fit incumbent unproven above the size cap or the
//!   node budget);
//! * [`bilevel`] — level-1 solve of the trace's fwd/bwd layer bodies,
//!   pseudo-request substitution, level-2 solve of the whole iteration
//!   built from body offsets without expanding the trace;
//! * [`index`] — sweep-line interval index (O(log n + k) conflict queries,
//!   O(n log n + K) all-pairs adjacency) replacing the linear-scan
//!   `conflicts_of` on hot paths;
//! * [`boxing`] — near-optimal whole-trace solver: jobset analysis plus
//!   recursive boxing into power-of-two height classes, with a certified
//!   multiplicative gap to the liveness lower bound; scales to
//!   million-interval instances where exact search is infeasible;
//! * [`dispatch`] — size-based planner dispatch (exact BnB below a
//!   threshold, boxing above it, best-fit as last resort) and the
//!   whole-trace planning entry point;
//! * [`synth`] — synthetic MegaTrain-class trace generator (100B+ models,
//!   few GPUs, NVMe offload) for stressing the large-instance path;
//! * [`memplan`] — the resulting [`MemoryPlan`]
//!   consumed by `memo_alloc::plan::PlanAllocator`.

pub mod bilevel;
pub mod bnb;
pub mod boxing;
pub mod dispatch;
pub mod dsa;
pub mod heuristic;
pub mod index;
pub mod io;
pub mod memplan;
pub mod synth;

pub use bilevel::{plan_iteration, plan_whole, BilevelReport, PlanOptions, WholeTraceStats};
pub use boxing::{BoxingOptions, BoxingSolution};
pub use dispatch::{DispatchOptions, DispatchSolution, PlannerBackend, PlannerKind};
pub use dsa::{Assignment, DsaInstance, DsaInstanceBuilder, DsaTensor};
pub use index::IntervalIndex;
pub use memplan::MemoryPlan;
