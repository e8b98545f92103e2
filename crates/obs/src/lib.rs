//! # memo-obs — observability exporters
//!
//! Turns in-memory run state into exportable artifacts (DESIGN.md §2c):
//!
//! * [`chrome`] — Chrome-trace (`chrome://tracing` / Perfetto JSON array)
//!   export of [`Timeline`](memo_hal::engine::Timeline)s: one process per
//!   simulated device or mode, one thread per stream, instant events for
//!   recorded events and waits;
//! * [`alloc_trace`] — the caching allocator's event log (each event
//!   stamped with allocated and reserved bytes) as Chrome counter tracks —
//!   the Figure 1(a) curves regenerated from a run;
//! * [`report`] — [`ExecutionReport`](memo_core::pipeline::ExecutionReport)
//!   and [`RunObserver`](memo_core::observer::RunObserver) serialization,
//!   with a full parser back;
//! * [`latency`] — nearest-rank percentile summaries (p50/p90/p99) of
//!   per-request wall latencies, for the serve layer's fleet metrics;
//! * [`json`] — the minimal hand-rolled JSON value the above share (the
//!   workspace builds offline, with no JSON dependency).
//!
//! Everything here *reads* state that collection left behind; collection
//! itself lives with the collected (the allocator's `Option`-gated event
//! recorder, the pipeline's `RunObserver` threading) so that disabled
//! observation costs nothing.

pub mod alloc_trace;
pub mod chrome;
pub mod json;
pub mod latency;
pub mod report;

pub use report::{observed_json, parse_report, report_json};
