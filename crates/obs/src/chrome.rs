//! Chrome-trace export of [`Timeline`]s.
//!
//! Emits the Chrome Trace Event "JSON array format" understood by
//! `chrome://tracing` and Perfetto: one *process* per simulated device (or
//! execution mode), one *thread* per stream, a complete `"X"` event per
//! span, and an instant `"i"` event per recorded event / wait mark.
//! Timestamps are microseconds (the format's unit) derived from the
//! simulated nanosecond clock.

use crate::json::Json;
use memo_hal::engine::{MarkKind, StreamId, Timeline};

/// Builds one trace file from any number of timelines.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Json>,
    next_pid: u64,
}

/// Microseconds for a simulated nanosecond count (Chrome's `ts` unit).
fn us(nanos: u64) -> Json {
    Json::Num(nanos as f64 / 1e3)
}

impl TraceBuilder {
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Add `tl` as the next process, named `process_name`. Returns the pid
    /// it was assigned.
    pub fn add_timeline(&mut self, process_name: &str, tl: &Timeline) -> u64 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.events
            .push(meta(pid, None, "process_name", process_name));
        for s in 0..tl.n_streams() {
            self.events.push(meta(
                pid,
                Some(s as u64),
                "thread_name",
                tl.stream_name(StreamId(s)),
            ));
        }
        for sp in tl.spans() {
            self.events.push(Json::Obj(vec![
                ("name".into(), Json::str(sp.label.as_str())),
                ("cat".into(), Json::str("sim")),
                ("ph".into(), Json::str("X")),
                ("pid".into(), Json::int(pid)),
                ("tid".into(), Json::int(sp.stream.0 as u64)),
                ("ts".into(), us(sp.start.as_nanos())),
                (
                    "dur".into(),
                    us(sp.end.as_nanos().saturating_sub(sp.start.as_nanos())),
                ),
            ]));
        }
        for mark in tl.marks() {
            let name = match mark.kind {
                MarkKind::Record(e) => format!("record e{}", e.0),
                MarkKind::Wait(e) => format!("wait e{}", e.0),
                MarkKind::WaitUntil => "wait_until".into(),
            };
            self.events.push(Json::Obj(vec![
                ("name".into(), Json::str(name)),
                ("cat".into(), Json::str("sync")),
                ("ph".into(), Json::str("i")),
                ("s".into(), Json::str("t")),
                ("pid".into(), Json::int(pid)),
                ("tid".into(), Json::int(mark.stream.0 as u64)),
                ("ts".into(), us(mark.time.as_nanos())),
            ]));
        }
        pid
    }

    /// Append pre-built trace events (e.g. the allocator counter track
    /// from [`crate::alloc_trace::chrome_memory_counters`]).
    pub fn add_events(&mut self, events: Vec<Json>) {
        self.events.extend(events);
    }

    /// The assembled trace as a [`Json`] array, duration events sorted by
    /// (ts, pid, tid) as trace viewers expect. Metadata events keep their
    /// natural position (ts 0 ordering is irrelevant for `"M"`).
    fn to_json(&self) -> Json {
        let mut events = self.events.clone();
        events.sort_by(|a, b| {
            let key = |e: &Json| {
                (
                    // Metadata first, then by timestamp/pid/tid.
                    (e.get("ph").and_then(Json::as_str) != Some("M")) as u8,
                    e.get("ts")
                        .and_then(Json::as_f64)
                        .map(|t| (t * 1e3) as u64)
                        .unwrap_or(0),
                    e.get("pid").and_then(Json::as_u64).unwrap_or(0),
                    e.get("tid").and_then(Json::as_u64).unwrap_or(0),
                )
            };
            key(a).cmp(&key(b))
        });
        Json::Arr(events)
    }
}

/// The JSON-array file format; `to_string()` comes with it.
impl std::fmt::Display for TraceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

/// A `"M"` metadata event naming a process or thread.
fn meta(pid: u64, tid: Option<u64>, what: &str, name: &str) -> Json {
    let mut fields = vec![
        ("name".into(), Json::str(what)),
        ("ph".into(), Json::str("M")),
        ("pid".into(), Json::int(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".into(), Json::int(tid)));
    }
    fields.push((
        "args".into(),
        Json::Obj(vec![("name".into(), Json::str(name))]),
    ));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use memo_hal::time::SimTime;

    fn sample() -> Timeline {
        let mut tl = Timeline::new();
        let c = tl.add_stream("compute");
        let o = tl.add_stream("offload");
        tl.enqueue(c, SimTime::from_millis(10), "L0");
        let ev = tl.record_event(c);
        tl.wait_event(o, ev);
        tl.enqueue(o, SimTime::from_millis(5), "off0");
        tl
    }

    #[test]
    fn exports_metadata_spans_and_marks() {
        let mut b = TraceBuilder::new();
        b.add_timeline("dev0", &sample());
        let doc = parse(&b.to_string()).expect("valid JSON");
        let events = doc.as_arr().unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(phase("M"), 3, "process_name + 2 thread_name");
        assert_eq!(phase("X"), 2, "two spans");
        assert_eq!(phase("i"), 2, "record + wait marks");
        // The offload span starts after the event it waited on (10ms).
        let off = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("off0"))
            .unwrap();
        assert_eq!(off.get("ts").unwrap().as_f64().unwrap(), 10_000.0);
        assert_eq!(off.get("dur").unwrap().as_f64().unwrap(), 5_000.0);
    }

    #[test]
    fn duration_events_are_sorted_by_time() {
        let mut b = TraceBuilder::new();
        b.add_timeline("a", &sample());
        b.add_timeline("b", &sample());
        let doc = parse(&b.to_string()).unwrap();
        let ts: Vec<f64> = doc
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn pids_distinguish_processes() {
        let mut b = TraceBuilder::new();
        let p0 = b.add_timeline("a", &sample());
        let p1 = b.add_timeline("b", &sample());
        assert_ne!(p0, p1);
    }
}
