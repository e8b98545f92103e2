//! Per-rank timelines with collective synchronisation.

use memo_hal::engine::{EventId, StreamId, Timeline};
use memo_hal::time::SimTime;

/// One timeline per rank, each with compute and offload streams, plus
/// collectives that couple them.
#[derive(Debug)]
pub(crate) struct ClusterTimeline {
    timelines: Vec<Timeline>,
    compute: Vec<StreamId>,
    offload: Vec<StreamId>,
}

impl ClusterTimeline {
    pub(crate) fn new(world: usize) -> Self {
        let mut timelines = Vec::with_capacity(world);
        let mut compute = Vec::with_capacity(world);
        let mut offload = Vec::with_capacity(world);
        for _ in 0..world {
            let mut tl = Timeline::new();
            compute.push(tl.add_stream("compute"));
            offload.push(tl.add_stream("offload"));
            timelines.push(tl);
        }
        ClusterTimeline {
            timelines,
            compute,
            offload,
        }
    }

    /// Enqueue compute work on one rank.
    pub(crate) fn compute(
        &mut self,
        rank: usize,
        dur: SimTime,
        label: impl Into<String>,
    ) -> SimTime {
        self.timelines[rank].enqueue(self.compute[rank], dur, label)
    }

    /// Enqueue an offload transfer on one rank; returns its completion event.
    pub(crate) fn offload(
        &mut self,
        rank: usize,
        dur: SimTime,
        label: impl Into<String>,
    ) -> EventId {
        let tl = &mut self.timelines[rank];
        let compute_done = tl.record_event(self.compute[rank]);
        tl.wait_event(self.offload[rank], compute_done);
        tl.enqueue(self.offload[rank], dur, label);
        tl.record_event(self.offload[rank])
    }

    /// Make a rank's compute stream wait on one of its own events.
    pub(crate) fn wait_compute(&mut self, rank: usize, ev: EventId) {
        self.timelines[rank].wait_event(self.compute[rank], ev);
    }

    /// A synchronous collective over `ranks`: starts when the slowest
    /// member's compute stream arrives, then occupies every member for
    /// `dur`. This barrier coupling is what amplifies stragglers.
    pub(crate) fn collective(&mut self, ranks: &[usize], dur: SimTime, label: &str) {
        let start = ranks
            .iter()
            .map(|&r| self.timelines[r].stream_cursor(self.compute[r]))
            .max()
            .unwrap_or(SimTime::ZERO);
        for &r in ranks {
            self.timelines[r].wait_until(self.compute[r], start);
            self.timelines[r].enqueue(self.compute[r], dur, label);
        }
    }

    /// Completion time of a rank's compute stream.
    pub(crate) fn compute_cursor(&self, rank: usize) -> SimTime {
        self.timelines[rank].stream_cursor(self.compute[rank])
    }

    /// Cluster makespan.
    pub(crate) fn makespan(&self) -> SimTime {
        self.timelines
            .iter()
            .map(|tl| tl.makespan())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Access one rank's timeline (rendering / assertions).
    pub(crate) fn timeline(&self, rank: usize) -> &Timeline {
        &self.timelines[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn collective_waits_for_slowest() {
        let mut c = ClusterTimeline::new(4);
        c.compute(0, ms(10), "w");
        c.compute(1, ms(30), "w"); // straggler
        c.compute(2, ms(20), "w");
        c.collective(&[0, 1, 2, 3], ms(5), "allreduce");
        for r in 0..4 {
            assert_eq!(c.compute_cursor(r), ms(35), "rank {r}");
        }
    }

    #[test]
    fn disjoint_groups_do_not_couple() {
        let mut c = ClusterTimeline::new(4);
        c.compute(0, ms(50), "slow");
        c.collective(&[0, 1], ms(5), "g0");
        c.collective(&[2, 3], ms(5), "g1");
        assert_eq!(c.compute_cursor(1), ms(55));
        assert_eq!(c.compute_cursor(3), ms(5), "group 1 unaffected");
    }

    #[test]
    fn offload_overlaps_compute() {
        let mut c = ClusterTimeline::new(1);
        c.compute(0, ms(10), "fwd0");
        let ev = c.offload(0, ms(8), "off0");
        c.compute(0, ms(10), "fwd1"); // overlaps the offload
        assert_eq!(c.compute_cursor(0), ms(20));
        c.wait_compute(0, ev);
        c.compute(0, ms(1), "gated");
        assert_eq!(c.compute_cursor(0), ms(21)); // offload done at 18 < 20
        c.timeline(0).check_causality().unwrap();
    }

    #[test]
    fn makespan_over_all_ranks() {
        let mut c = ClusterTimeline::new(3);
        c.compute(2, ms(42), "w");
        assert_eq!(c.makespan(), ms(42));
    }
}
