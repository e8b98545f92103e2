//! # memo-serve — fleet-scale planning as a service
//!
//! The rest of the workspace answers one planning question at a time:
//! given a (model, cluster, sequence) workload, find the best MEMO
//! strategy cell. This crate turns that into a *service* (DESIGN.md §2h):
//! a stream of heterogeneous planning queries from many simulated tenants,
//! driven through the shared chunked pool with the process-global
//! profile and segment caches shared across requests.
//!
//! * `request` — the wire types: [`PlanRequest`],
//!   [`PlanReply`], and the typed
//!   [`RejectReason`] whose `cell()` renders
//!   `X_queue` / `X_deadline` / `X_budget` like the paper tables' `X_oom`;
//! * `zipf` — deterministic Zipfian multi-tenant stream generation;
//! * `admission` — queue-depth and deadline shedding on a deterministic
//!   virtual clock (a fluid queue fed by a cost model, never by measured
//!   wall time — so both server legs admit the identical set);
//! * `elastic` — the fleet's host-staging and arena budgets split evenly
//!   over the active tenants: one share per tier, recomputed in O(1) on
//!   tenant arrival/departure, and each tenant's used bytes per tier in a
//!   slot-indexed table, with power-of-two quantization of the planning
//!   budget for profile-cache key stability;
//! * `server` — the two-phase [`PlanServer`]:
//!   serial deterministic admission, then pooled execution — one lookup
//!   per request in `memo-core`'s pick table — with per-request RAII
//!   stats scopes and wall-clock latency, summarized as p50/p99 latency,
//!   queries/sec, and pick-table and shared-cache hit rates.

mod admission;
mod elastic;
mod request;
mod server;
mod zipf;

pub use elastic::ElasticPools;
pub use request::{
    replies_match, ModelSize, PlanReply, PlanRequest, RejectReason, RequestOutcome, RequestRecord,
    TenantKind,
};
pub use server::{PlanServer, ServeConfig, ServeReport, ServeSummary};
pub use zipf::{generate, StreamSpec, Zipf};
