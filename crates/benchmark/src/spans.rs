//! In-memory spans of a traced run, exported as a Chrome trace.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the library is instrumented. Lane 0
//! holds the end-to-end op spans; every other lane is one layer. All spans
//! of one op carry the op's id, and the op span on lane 0 is the parent of
//! the layer spans with the same id.

use memo_obs::chrome::TraceBuilder;
use memo_obs::json::Json;
use std::time::Instant;

/// The lane of end-to-end op spans.
pub const OP: usize = 0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub lane: usize,
    pub op: u64,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub secs: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    lanes: &'static [&'static str],
    spans: Vec<Span>,
}

impl Tracer {
    /// `lanes[0]` names the op lane, the rest the layers.
    pub fn new(lanes: &'static [&'static str]) -> Self {
        Tracer {
            origin: Instant::now(),
            lanes,
            spans: Vec::new(),
        }
    }

    /// Run `f` as a span on `lane`, returning its value and duration.
    pub fn span<T>(&mut self, lane: usize, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let secs = start.elapsed().as_secs_f64();
        self.record(lane, op, start, secs);
        (value, secs)
    }

    /// Record an interval measured elsewhere.
    pub fn record(&mut self, lane: usize, op: u64, start: Instant, secs: f64) {
        debug_assert!(lane < self.lanes.len(), "lane {lane} has no name");
        self.spans.push(Span {
            lane,
            op,
            start: start.saturating_duration_since(self.origin).as_secs_f64(),
            secs,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans on `lane`.
    pub fn busy(&self, lane: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.lane == lane)
            .map(|s| s.secs)
            .sum()
    }

    /// How much longer the op spans took than `untraced`, the untraced
    /// timings of the same ops, in percent.
    pub fn overhead_pct(&self, untraced: &[f64]) -> f64 {
        100.0 * (self.busy(OP) / untraced.iter().sum::<f64>() - 1.0)
    }

    /// (layer name, busy seconds) for every layer lane.
    pub fn layer_busy(&self) -> Vec<(&'static str, f64)> {
        (1..self.lanes.len())
            .map(|lane| (self.lanes[lane], self.busy(lane)))
            .collect()
    }

    /// The spans as a Chrome trace: process `pid` named `process`, one
    /// thread per lane.
    pub fn chrome(&self, pid: u64, process: &str) -> String {
        let meta = |what: &str, tid: Option<usize>, name: &str| {
            let mut fields = vec![
                ("name".to_string(), Json::str(what)),
                ("ph".to_string(), Json::str("M")),
                ("pid".to_string(), Json::int(pid)),
            ];
            if let Some(tid) = tid {
                fields.push(("tid".to_string(), Json::int(tid as u64)));
            }
            fields.push((
                "args".to_string(),
                Json::Obj(vec![("name".to_string(), Json::str(name))]),
            ));
            Json::Obj(fields)
        };
        let mut events = vec![meta("process_name", None, process)];
        for (tid, name) in self.lanes.iter().enumerate() {
            events.push(meta("thread_name", Some(tid), name));
        }
        for s in &self.spans {
            events.push(Json::Obj(vec![
                ("name".to_string(), Json::str(self.lanes[s.lane])),
                ("cat".to_string(), Json::str("benchmark")),
                ("ph".to_string(), Json::str("X")),
                ("pid".to_string(), Json::int(pid)),
                ("tid".to_string(), Json::int(s.lane as u64)),
                ("ts".to_string(), Json::num(s.start * 1e6)),
                ("dur".to_string(), Json::num(s.secs * 1e6)),
                (
                    "args".to_string(),
                    Json::Obj(vec![("op".to_string(), Json::int(s.op))]),
                ),
            ]));
        }
        let mut builder = TraceBuilder::new();
        builder.add_events(events);
        builder.to_string()
    }
}
