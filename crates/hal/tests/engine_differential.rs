//! Differential suite: the interned/arena engine (`memo_hal::engine`) vs
//! the verbatim pre-fast-path engine (`memo_hal::reference`), driven in
//! lockstep over scripted and pseudo-random op streams.
//!
//! The two must agree bit-for-bit on makespans, stream cursors, event
//! times, busy/idle times, and the complete span and mark streams (labels
//! compared after symbol resolution).

use memo_hal::engine::{EventId, StreamId, Timeline};
use memo_hal::reference::Timeline as RefTimeline;
use memo_hal::time::SimTime;

/// One operation of a lockstep script.
#[derive(Debug, Clone)]
enum Op {
    Enqueue {
        stream: usize,
        dur: u64,
        label: String,
    },
    Record {
        stream: usize,
    },
    Wait {
        stream: usize,
        event: usize,
    },
    WaitUntil {
        stream: usize,
        time: u64,
    },
}

/// Drive the same script into both timelines and assert agreement.
fn run_lockstep(n_streams: usize, script: &[Op]) {
    let mut r = RefTimeline::new();
    let mut f = Timeline::new();
    for s in 0..n_streams {
        let name = format!("stream{s}");
        r.add_stream(name.clone());
        f.add_stream(name);
    }
    f.reserve_ops(script.len(), 2 * script.len(), script.len());

    let mut n_events = 0usize;
    for op in script {
        match op {
            Op::Enqueue { stream, dur, label } => {
                let s = StreamId(*stream);
                let d = SimTime(*dur);
                let end_r = r.enqueue(s, d, label.clone());
                let end_f = f.enqueue_fmt(s, d, format_args!("{label}"));
                assert_eq!(end_r, end_f, "enqueue end diverged at {op:?}");
            }
            Op::Record { stream } => {
                let s = StreamId(*stream);
                let er = r.record_event(s);
                let ef = f.record_event(s);
                assert_eq!(er, ef, "event ids diverged");
                n_events += 1;
            }
            Op::Wait { stream, event } => {
                let s = StreamId(*stream);
                let e = EventId(*event);
                r.wait_event(s, e);
                f.wait_event(s, e);
            }
            Op::WaitUntil { stream, time } => {
                let s = StreamId(*stream);
                let t = SimTime(*time);
                r.wait_until(s, t);
                f.wait_until(s, t);
            }
        }
    }

    assert_eq!(r.makespan(), f.makespan());
    for s in 0..n_streams {
        let sid = StreamId(s);
        assert_eq!(r.stream_cursor(sid), f.stream_cursor(sid), "cursor {s}");
        assert_eq!(r.busy_time(sid), f.busy_time(sid), "busy {s}");
        assert_eq!(r.idle_time(sid), f.idle_time(sid), "idle {s}");
        assert_eq!(r.stream_name(sid), f.stream_name(sid));
    }
    for e in 0..n_events {
        let id = EventId(e);
        assert_eq!(r.event_time(id), f.event_time(id), "event {e}");
    }

    // Identical span and mark streams.
    assert_eq!(r.spans().len(), f.spans().len());
    for (sr, sf) in r.spans().iter().zip(f.spans()) {
        assert_eq!(sr.stream, sf.stream);
        assert_eq!(sr.start, sf.start);
        assert_eq!(sr.end, sf.end);
        assert_eq!(sr.label.as_str(), f.span_label(sf));
    }
    assert_eq!(r.marks().len(), f.marks().len());
    for (mr, mf) in r.marks().iter().zip(f.marks()) {
        assert_eq!(mr.stream, mf.stream);
        assert_eq!(mr.time, mf.time);
        assert_eq!(mr.kind, mf.kind);
    }
    assert!(r.check_causality().is_ok());
    assert!(f.check_causality().is_ok());
}

#[test]
fn scripted_three_stream_schedule() {
    // The Figure-11 shape: compute / offload / prefetch with event guards.
    let script = vec![
        Op::Enqueue {
            stream: 0,
            dur: 10,
            label: "fwd L0".into(),
        },
        Op::Record { stream: 0 }, // e0
        Op::Wait {
            stream: 1,
            event: 0,
        },
        Op::Enqueue {
            stream: 1,
            dur: 25,
            label: "off L0".into(),
        },
        Op::Record { stream: 1 }, // e1
        Op::Enqueue {
            stream: 0,
            dur: 10,
            label: "fwd L1".into(),
        },
        Op::Wait {
            stream: 0,
            event: 1,
        },
        Op::Enqueue {
            stream: 0,
            dur: 10,
            label: "fwd L2".into(),
        },
        Op::Record { stream: 0 }, // e2
        Op::Wait {
            stream: 2,
            event: 2,
        },
        Op::Enqueue {
            stream: 2,
            dur: 25,
            label: "pf L0".into(),
        },
        Op::WaitUntil {
            stream: 0,
            time: 100,
        },
        Op::Enqueue {
            stream: 0,
            dur: 5,
            label: "bwd L2".into(),
        },
    ];
    run_lockstep(3, &script);
}

#[test]
fn repeated_labels_share_symbols() {
    let mut tl = Timeline::new();
    let s = tl.add_stream("s");
    for i in 0..100 {
        tl.enqueue_fmt(s, SimTime(1), format_args!("op{}", i % 4));
    }
    assert_eq!(tl.spans().len(), 100);
    assert_eq!(tl.symbols().len(), 5, "empty + 4 distinct labels");
}

/// Minimal deterministic xorshift so the stream mix is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn randomized_op_streams() {
    for seed in 1..=20u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let n_streams = 1 + rng.below(4) as usize;
        let mut script = Vec::new();
        let mut n_events = 0usize;
        for k in 0..200 {
            let stream = rng.below(n_streams as u64) as usize;
            match rng.below(10) {
                0..=5 => script.push(Op::Enqueue {
                    stream,
                    dur: rng.below(1_000_000),
                    label: format!("op{}", k % 7),
                }),
                6..=7 => {
                    script.push(Op::Record { stream });
                    n_events += 1;
                }
                8 if n_events > 0 => script.push(Op::Wait {
                    stream,
                    event: rng.below(n_events as u64) as usize,
                }),
                _ => script.push(Op::WaitUntil {
                    stream,
                    time: rng.below(10_000_000),
                }),
            }
        }
        run_lockstep(n_streams, &script);
    }
}
