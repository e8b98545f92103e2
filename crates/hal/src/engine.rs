//! The discrete-event timeline engine.
//!
//! CUDA semantics, distilled to what MEMO's scheduler relies on (§4.3.4):
//!
//! * a **stream** executes its operations serially, in enqueue order;
//! * an **event** recorded on a stream completes when all work enqueued on
//!   that stream before the record has completed;
//! * a stream instructed to **wait** on an event stalls until the event
//!   completes.
//!
//! Because the training iteration is a static computation graph, we can
//! resolve all timestamps greedily at enqueue time: each operation starts at
//! `max(stream cursor, pending event times)` and ends `duration` later.
//!
//! # Recording
//!
//! Every timeline records every span (with an owned `String` label) and
//! every mark, for Figure-11 rendering and Chrome-trace export. Runs that
//! need only the numbers (the strategy search, unobserved pipeline runs) do
//! not come here at all: they read `memo_swap::build_schedule_scalars`, the
//! closed-form recurrence over the same schedule (DESIGN.md §2e).

use crate::time::SimTime;
use std::fmt;

/// Identifies a stream within one [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

/// Identifies a recorded event within one [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub usize);

/// One executed operation, kept for timeline rendering and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub stream: StreamId,
    pub start: SimTime,
    pub end: SimTime,
    pub label: String,
}

/// What an instantaneous [`Mark`] on a stream denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// An event was recorded on the stream ([`Timeline::record_event`]).
    Record(EventId),
    /// The stream was told to wait on an event ([`Timeline::wait_event`]).
    Wait(EventId),
    /// The stream was stalled to an absolute time ([`Timeline::wait_until`]).
    WaitUntil,
}

/// An instantaneous occurrence on a stream — event records and waits —
/// kept alongside [`Span`]s so exporters (e.g. the Chrome-trace writer in
/// `memo-obs`) can show the cross-stream dependency points of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    pub stream: StreamId,
    /// For `Record`, the event's completion time; for `Wait`/`WaitUntil`,
    /// the time the stream will stall to.
    pub time: SimTime,
    pub kind: MarkKind,
}

#[derive(Debug, Clone)]
struct Stream {
    name: String,
    cursor: SimTime,
    /// Event times this stream must wait for before its next op.
    pending_waits: Vec<SimTime>,
}

/// A deterministic multi-stream execution timeline for one simulated GPU
/// (or one representative GPU of a symmetric parallel group).
///
/// ```
/// use memo_hal::engine::Timeline;
/// use memo_hal::time::SimTime;
///
/// let mut tl = Timeline::new();
/// let compute = tl.add_stream("compute");
/// let offload = tl.add_stream("offload");
/// tl.enqueue(compute, SimTime::from_millis(10), "layer 0");
/// let done = tl.record_event(compute);
/// tl.wait_event(offload, done);                 // CUDA-style ordering
/// tl.enqueue(offload, SimTime::from_millis(4), "offload 0");
/// assert_eq!(tl.makespan(), SimTime::from_millis(14));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    streams: Vec<Stream>,
    events: Vec<SimTime>,
    spans: Vec<Span>,
    marks: Vec<Mark>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Create a stream with a human-readable name (e.g. "compute").
    pub fn add_stream(&mut self, name: impl Into<String>) -> StreamId {
        self.streams.push(Stream {
            name: name.into(),
            cursor: SimTime::ZERO,
            pending_waits: Vec::new(),
        });
        StreamId(self.streams.len() - 1)
    }

    pub fn stream_name(&self, id: StreamId) -> &str {
        &self.streams[id.0].name
    }

    /// Number of streams created so far (including span-less ones).
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }

    /// Current completion time of all work enqueued on `stream`.
    pub fn stream_cursor(&self, stream: StreamId) -> SimTime {
        self.streams[stream.0].cursor
    }

    /// Makespan: the completion time of the latest operation on any stream.
    pub fn makespan(&self) -> SimTime {
        self.streams
            .iter()
            .map(|s| s.cursor)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Enqueue an operation of `duration` on `stream`; returns its end time.
    ///
    /// The op starts no earlier than the stream cursor and no earlier than
    /// any event the stream was told to wait for since its last op.
    pub fn enqueue(
        &mut self,
        stream: StreamId,
        duration: SimTime,
        label: impl Into<String>,
    ) -> SimTime {
        let s = &mut self.streams[stream.0];
        let mut start = s.cursor;
        for w in s.pending_waits.drain(..) {
            start = start.max(w);
        }
        let end = start + duration;
        s.cursor = end;
        self.spans.push(Span {
            stream,
            start,
            end,
            label: label.into(),
        });
        end
    }

    /// Record an event capturing the stream's current completion time.
    pub fn record_event(&mut self, stream: StreamId) -> EventId {
        // A recorded event also observes pending waits: recording is itself
        // an (instant) operation on the stream.
        let t = {
            let s = &mut self.streams[stream.0];
            let mut t = s.cursor;
            for w in s.pending_waits.drain(..) {
                t = t.max(w);
            }
            s.cursor = t;
            t
        };
        self.events.push(t);
        let id = EventId(self.events.len() - 1);
        self.marks.push(Mark {
            stream,
            time: t,
            kind: MarkKind::Record(id),
        });
        id
    }

    /// Completion time of a recorded event.
    pub fn event_time(&self, event: EventId) -> SimTime {
        self.events[event.0]
    }

    /// Make the next operation on `stream` wait for `event`.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) {
        let t = self.events[event.0];
        self.streams[stream.0].pending_waits.push(t);
        self.marks.push(Mark {
            stream,
            time: t,
            kind: MarkKind::Wait(event),
        });
    }

    /// Stall `stream` until an absolute time (used for host-side waits).
    pub fn wait_until(&mut self, stream: StreamId, time: SimTime) {
        self.streams[stream.0].pending_waits.push(time);
        self.marks.push(Mark {
            stream,
            time,
            kind: MarkKind::WaitUntil,
        });
    }

    /// All recorded spans, in enqueue order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All instantaneous marks (event records and waits), in call order.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Total busy time of one stream (sum of op durations).
    pub fn busy_time(&self, stream: StreamId) -> SimTime {
        SimTime(
            self.spans
                .iter()
                .filter(|sp| sp.stream == stream)
                .map(|sp| (sp.end - sp.start).as_nanos())
                .sum(),
        )
    }

    /// Idle ("bubble") time of a stream before the makespan.
    pub fn idle_time(&self, stream: StreamId) -> SimTime {
        self.makespan().saturating_sub(self.busy_time(stream))
    }

    /// Verify causality invariants; panics (debug builds use this in tests).
    ///
    /// * spans on one stream do not overlap and appear in time order;
    /// * no span has negative duration.
    pub fn check_causality(&self) -> Result<(), CausalityError> {
        let mut last_end: Vec<SimTime> = vec![SimTime::ZERO; self.streams.len()];
        for sp in &self.spans {
            if sp.end < sp.start {
                return Err(CausalityError {
                    label: sp.label.clone(),
                    detail: "negative duration".into(),
                });
            }
            let le = &mut last_end[sp.stream.0];
            if sp.start < *le {
                return Err(CausalityError {
                    label: sp.label.clone(),
                    detail: format!("starts at {} before stream tail {}", sp.start, le),
                });
            }
            *le = sp.end;
        }
        Ok(())
    }
}

/// A violation of per-stream serial execution detected by
/// [`Timeline::check_causality`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalityError {
    label: String,
    detail: String,
}

impl fmt::Display for CausalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "causality violation at '{}': {}",
            self.label, self.detail
        )
    }
}

impl std::error::Error for CausalityError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn serial_execution_on_one_stream() {
        let mut tl = Timeline::new();
        let s = tl.add_stream("compute");
        let e1 = tl.enqueue(s, ms(10), "a");
        let e2 = tl.enqueue(s, ms(5), "b");
        assert_eq!(e1, ms(10));
        assert_eq!(e2, ms(15));
        assert_eq!(tl.makespan(), ms(15));
        tl.check_causality().unwrap();
    }

    #[test]
    fn cross_stream_event_wait() {
        let mut tl = Timeline::new();
        let compute = tl.add_stream("compute");
        let offload = tl.add_stream("offload");
        tl.enqueue(compute, ms(10), "layer0");
        let ev = tl.record_event(compute);
        tl.wait_event(offload, ev);
        let end = tl.enqueue(offload, ms(4), "offload0");
        assert_eq!(end, ms(14)); // started at 10, not 0
        tl.check_causality().unwrap();
    }

    #[test]
    fn overlap_between_streams() {
        let mut tl = Timeline::new();
        let compute = tl.add_stream("compute");
        let offload = tl.add_stream("offload");
        tl.enqueue(compute, ms(10), "layer0");
        let ev = tl.record_event(compute);
        tl.wait_event(offload, ev);
        tl.enqueue(offload, ms(8), "offload0");
        tl.enqueue(compute, ms(10), "layer1"); // overlaps with offload0
        assert_eq!(tl.makespan(), ms(20));
        assert_eq!(tl.busy_time(compute), ms(20));
        assert_eq!(tl.busy_time(offload), ms(8));
        assert_eq!(tl.idle_time(offload), ms(12));
    }

    #[test]
    fn compute_blocked_by_slow_offload() {
        // The Figure 11 "w/o token-wise" situation: layer i+2 must wait for
        // buffer (i%2) to finish offloading.
        let mut tl = Timeline::new();
        let compute = tl.add_stream("compute");
        let offload = tl.add_stream("offload");
        tl.enqueue(compute, ms(10), "layer0");
        let l0_done = tl.record_event(compute);
        tl.wait_event(offload, l0_done);
        tl.enqueue(offload, ms(25), "offload0"); // slower than a layer
        let off0_done = tl.record_event(offload);
        tl.enqueue(compute, ms(10), "layer1");
        tl.wait_event(compute, off0_done); // buffer reuse guard
        let end = tl.enqueue(compute, ms(10), "layer2");
        assert_eq!(end, ms(45)); // 35 (offload end) + 10
        tl.check_causality().unwrap();
    }

    #[test]
    fn record_event_observes_pending_waits() {
        let mut tl = Timeline::new();
        let a = tl.add_stream("a");
        let b = tl.add_stream("b");
        tl.enqueue(a, ms(7), "x");
        let ev = tl.record_event(a);
        tl.wait_event(b, ev);
        let ev_b = tl.record_event(b); // b did nothing, but waits propagate
        assert_eq!(tl.event_time(ev_b), ms(7));
    }

    #[test]
    fn marks_capture_records_and_waits() {
        let mut tl = Timeline::new();
        let a = tl.add_stream("a");
        let b = tl.add_stream("b");
        tl.enqueue(a, ms(10), "x");
        let ev = tl.record_event(a);
        tl.wait_event(b, ev);
        tl.wait_until(b, ms(30));
        assert_eq!(tl.n_streams(), 2);
        assert_eq!(
            tl.marks(),
            &[
                Mark {
                    stream: a,
                    time: ms(10),
                    kind: MarkKind::Record(ev),
                },
                Mark {
                    stream: b,
                    time: ms(10),
                    kind: MarkKind::Wait(ev),
                },
                Mark {
                    stream: b,
                    time: ms(30),
                    kind: MarkKind::WaitUntil,
                },
            ]
        );
    }

    #[test]
    fn wait_until_absolute() {
        let mut tl = Timeline::new();
        let s = tl.add_stream("s");
        tl.wait_until(s, ms(100));
        let end = tl.enqueue(s, ms(1), "late");
        assert_eq!(end, ms(101));
    }
}
