//! Admission control on a deterministic virtual clock.
//!
//! The controller models the service as a fluid queue: admitted work adds
//! its *estimated* service time to a backlog that drains at a fixed 8
//! seconds of work per second of virtual time. Requests are shed when the
//! backlog's queue depth hits the limit, or when the estimated wait alone
//! already busts the request's SLO.
//!
//! Everything here is a function of the request stream — the service
//! estimate is a cost model, not a measurement — so the admitted set is
//! identical between the pooled and serial legs of the server (the parity
//! contract of the server tests), and identical across machines. Measured
//! latencies are recorded downstream for reporting, never fed back.

use crate::request::{PlanRequest, RejectReason};

/// Drain rate of the backlog: the concurrent planning workers the cost
/// model assumes. It is a constant rather than the execution pool's width
/// so that the admitted set never depends on the machine.
const WORKERS: usize = 8;

/// EWMA smoothing for the per-request service estimate.
const EWMA_ALPHA: f64 = 0.2;

/// Deterministic per-request service cost model (virtual seconds):
/// planning cost scales with the sequence length (segment-cache work) and
/// the layer count (profile work). Absolute scale is arbitrary — only
/// ratios against gaps and SLOs matter.
fn virtual_service_estimate(req: &PlanRequest) -> f64 {
    let seq_scale = req.seq_len as f64 / (64.0 * 1024.0);
    let layer_scale = req.model.config().n_layers as f64 / 32.0;
    1e-3 * seq_scale * layer_scale
}

/// The fluid-queue admission controller.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionController {
    /// Shed when the virtual queue reaches this many requests.
    max_queue_depth: usize,
    backlog_secs: f64,
    last_arrival_secs: f64,
    ewma_service_secs: f64,
}

impl AdmissionController {
    pub(crate) fn new(max_queue_depth: usize) -> Self {
        assert!(max_queue_depth > 0, "queue depth 0 sheds everything");
        AdmissionController {
            max_queue_depth,
            backlog_secs: 0.0,
            last_arrival_secs: 0.0,
            ewma_service_secs: 1e-3,
        }
    }

    /// Requests (not seconds) in the virtual queue right now.
    fn queue_depth(&self) -> usize {
        (self.backlog_secs / self.ewma_service_secs.max(1e-9)).ceil() as usize
    }

    /// Decide a request. `Ok(est_wait_secs)` admits; the caller must
    /// follow up with [`Self::commit`] once the request's budget is also
    /// secured (queue-depth and deadline shedding happen here, budget
    /// shedding in the elastic pools).
    pub(crate) fn admit(&mut self, req: &PlanRequest) -> Result<f64, RejectReason> {
        // Drain: virtual time advanced by the arrival gap.
        let dt = (req.arrival_secs - self.last_arrival_secs).max(0.0);
        self.last_arrival_secs = req.arrival_secs;
        self.backlog_secs = (self.backlog_secs - dt * WORKERS as f64).max(0.0);

        let depth = self.queue_depth();
        if depth >= self.max_queue_depth {
            return Err(RejectReason::QueueFull {
                depth,
                limit: self.max_queue_depth,
            });
        }
        let est_wait_secs = self.backlog_secs / WORKERS as f64;
        let est_service = virtual_service_estimate(req);
        if est_wait_secs + est_service > req.deadline_secs {
            return Err(RejectReason::DeadlineUnmeetable {
                est_wait_secs,
                deadline_secs: req.deadline_secs,
            });
        }
        Ok(est_wait_secs)
    }

    /// Account an admitted request: its estimate joins the backlog and
    /// updates the EWMA the queue-depth conversion uses.
    pub(crate) fn commit(&mut self, req: &PlanRequest) -> f64 {
        let est = virtual_service_estimate(req);
        self.backlog_secs += est;
        self.ewma_service_secs = (1.0 - EWMA_ALPHA) * self.ewma_service_secs + EWMA_ALPHA * est;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ModelSize, TenantKind};

    fn req(id: usize, arrival_ms: f64, deadline_ms: f64) -> PlanRequest {
        PlanRequest {
            id,
            tenant: 0,
            kind: TenantKind::Training,
            model: ModelSize::Gpt7b,
            n_gpus: 8,
            seq_len: 64 * 1024,
            arrival_secs: arrival_ms * 1e-3,
            deadline_secs: deadline_ms * 1e-3,
        }
    }

    #[test]
    fn burst_fills_the_queue_then_gap_drains_it() {
        let mut ctrl = AdmissionController::new(4);
        // A burst at t=0 with SLOs no wait can bust: the 7B/64K estimate
        // is 1 ms; depth hits 4 after four commits and the fifth request
        // is shed.
        let mut shed = None;
        for i in 0..8 {
            match ctrl.admit(&req(i, 0.0, 1e9)) {
                Ok(_) => {
                    ctrl.commit(&req(i, 0.0, 1e9));
                }
                Err(r) => {
                    shed = Some((i, r));
                    break;
                }
            }
        }
        let (at, reason) = shed.expect("burst must overflow the queue");
        assert_eq!(at, 4);
        assert!(matches!(
            reason,
            RejectReason::QueueFull { depth: 4, limit: 4 }
        ));
        // A long gap drains the backlog; admission resumes.
        assert!(ctrl.admit(&req(9, 100.0, 1e9)).is_ok());
        assert_eq!(ctrl.queue_depth(), 0);
    }

    #[test]
    fn tight_deadlines_are_shed_up_front() {
        let mut ctrl = AdmissionController::new(1000);
        // Pile up 16 ms of backlog (a 2 ms wait at the fixed drain rate),
        // then ask for a 2 ms SLO.
        for i in 0..16 {
            ctrl.admit(&req(i, 0.0, 1e9)).unwrap();
            ctrl.commit(&req(i, 0.0, 1e9));
        }
        let err = ctrl.admit(&req(16, 0.0, 2.0)).unwrap_err();
        assert!(matches!(err, RejectReason::DeadlineUnmeetable { .. }));
        // A generous SLO on the same backlog is admitted.
        assert!(ctrl.admit(&req(17, 0.0, 50.0)).is_ok());
    }

    #[test]
    fn estimates_scale_with_sequence_and_model() {
        let small = virtual_service_estimate(&req(0, 0.0, 1.0));
        let mut big = req(1, 0.0, 1.0);
        big.seq_len = 256 * 1024;
        big.model = ModelSize::Gpt13b;
        let large = virtual_service_estimate(&big);
        assert!(large > 4.0 * small);
    }
}
