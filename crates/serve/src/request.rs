//! The planning service's wire types: what a tenant asks, what it gets
//! back, and why a request was turned away.

use memo_core::cache::CacheStats;
use memo_core::serving::Pick;
use memo_model::config::ModelConfig;
use memo_swap::SegmentCacheStats;
use std::sync::Arc;

/// What a tenant runs on its cluster slice. Training tenants plan MEMO
/// strategy grids; serving tenants plan decode-phase KV-cache policies
/// (`SystemSpec::Serving`). Both share the fleet's
/// [`ElasticPools`](crate::elastic::ElasticPools) budgets, which is what
/// the mixed-tenant server tests exercise.
pub use memo_core::serving::TenantKind;

/// The model sizes tenants can ask to plan for (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelSize {
    Gpt7b,
    Gpt13b,
    Gpt30b,
    Gpt65b,
}

impl ModelSize {
    pub fn config(&self) -> ModelConfig {
        match self {
            ModelSize::Gpt7b => ModelConfig::gpt_7b(),
            ModelSize::Gpt13b => ModelConfig::gpt_13b(),
            ModelSize::Gpt30b => ModelConfig::gpt_30b(),
            ModelSize::Gpt65b => ModelConfig::gpt_65b(),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            ModelSize::Gpt7b => "7b",
            ModelSize::Gpt13b => "13b",
            ModelSize::Gpt30b => "30b",
            ModelSize::Gpt65b => "65b",
        }
    }
}

/// One planning query: a tenant wants the best MEMO strategy (training)
/// or KV-cache policy (serving) for a (model, cluster slice, sequence
/// length) workload, answered within its SLO budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Position in the stream (stable id; arrival order).
    pub id: usize,
    pub tenant: usize,
    pub kind: TenantKind,
    pub model: ModelSize,
    pub n_gpus: usize,
    pub seq_len: u64,
    /// Arrival stamp on the stream's virtual clock (seconds).
    pub arrival_secs: f64,
    /// SLO: answer within this many seconds of arrival.
    pub deadline_secs: f64,
}

/// Why admission control turned a request away. `cell()` renders the
/// paper-table style label, like [`memo_core::CellOutcome::cell`] does for planning
/// failures — a shed request is an `X_*` cell of the fleet table.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The virtual queue is at its depth limit.
    QueueFull { depth: usize, limit: usize },
    /// The deadline cannot be met even if admitted right now.
    DeadlineUnmeetable {
        est_wait_secs: f64,
        deadline_secs: f64,
    },
    /// The tenant's elastic pool slice cannot stage the request.
    BudgetUnavailable {
        tier: usize,
        requested: u64,
        capacity: u64,
    },
}

impl RejectReason {
    pub fn cell(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "X_queue",
            RejectReason::DeadlineUnmeetable { .. } => "X_deadline",
            RejectReason::BudgetUnavailable { .. } => "X_budget",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, limit } => {
                write!(f, "queue full ({depth} >= {limit})")
            }
            RejectReason::DeadlineUnmeetable {
                est_wait_secs,
                deadline_secs,
            } => write!(
                f,
                "deadline unmeetable (est wait {est_wait_secs:.3}s > SLO {deadline_secs:.3}s)"
            ),
            RejectReason::BudgetUnavailable {
                tier,
                requested,
                capacity,
            } => write!(
                f,
                "budget unavailable (tier {tier}: {requested} bytes over {capacity})"
            ),
        }
    }
}

/// A served plan: the tenant's [`Pick`] plus the per-request resource
/// accounting, scoped to exactly this request (see the stats-scope types
/// in `memo-core`/`memo-swap`/`memo-parallel`).
#[derive(Debug, Clone)]
pub struct PlanReply {
    /// The picked cell (shared with the pick table on a memoized reply).
    pub pick: Arc<Pick>,
    /// Host-memory planning budget the request ran under (quantized).
    pub host_budget_bytes: u64,
    /// Profile-cache traffic attributable to this request alone.
    pub cache: CacheStats,
    /// Pick-table traffic of this request: one lookup, or none on the
    /// uncached serial leg.
    pub picks: CacheStats,
    /// Segment-cache traffic attributable to this request alone.
    pub segments: SegmentCacheStats,
    /// Wall-clock service latency of the planning work.
    pub latency_secs: f64,
}

/// What happened to one request of the stream.
#[derive(Debug, Clone)]
pub enum RequestOutcome {
    Planned(Box<PlanReply>),
    Rejected(RejectReason),
}

/// One stream entry, resolved.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    pub request: PlanRequest,
    pub outcome: RequestOutcome,
}

impl RequestRecord {
    /// Paper-table cell for this request: the plan's cell or the shed
    /// reason's `X_*` label.
    pub fn cell(&self) -> String {
        match &self.outcome {
            RequestOutcome::Planned(reply) => reply.pick.outcome.cell(),
            RequestOutcome::Rejected(reason) => reason.cell().into(),
        }
    }
}

/// Two replies describe the same plan: identical pick, outcome and grid
/// size, a bit-identical winning report (spec, strategy, outcome, bytes,
/// time), and the same planning budget. Latency and cache traffic are
/// deliberately excluded — they depend on timing and on what the shared
/// caches already held.
pub fn replies_match(a: &PlanReply, b: &PlanReply) -> bool {
    a.pick == b.pick && a.host_budget_bytes == b.host_budget_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_cells_mirror_the_outcome_table_style() {
        let q = RejectReason::QueueFull { depth: 9, limit: 8 };
        let d = RejectReason::DeadlineUnmeetable {
            est_wait_secs: 0.2,
            deadline_secs: 0.1,
        };
        let b = RejectReason::BudgetUnavailable {
            tier: 1,
            requested: 100,
            capacity: 50,
        };
        assert_eq!(q.cell(), "X_queue");
        assert_eq!(d.cell(), "X_deadline");
        assert_eq!(b.cell(), "X_budget");
        assert!(q.to_string().contains("9 >= 8"));
        assert!(b.to_string().contains("tier 1"));
    }

    #[test]
    fn model_sizes_resolve_to_their_configs() {
        assert_eq!(ModelSize::Gpt7b.config(), ModelConfig::gpt_7b());
        assert_eq!(ModelSize::Gpt65b.config(), ModelConfig::gpt_65b());
        assert_eq!(ModelSize::Gpt13b.label(), "13b");
    }
}
