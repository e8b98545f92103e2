//! Invariants of the timeline engine over seeded pseudo-random op streams:
//! 20 seeds, 1–4 streams, 200 enqueue/record/wait/wait_until ops each.
//!
//! Every run must pass `check_causality`, split each stream's makespan
//! exactly into busy and idle time, start every span no earlier than each
//! wait issued on its stream since that stream's previous span, and stamp
//! every `Record` mark with its event's time and every `Wait` mark with the
//! time of the event it waits on.

use memo_hal::engine::{EventId, MarkKind, StreamId, Timeline};
use memo_hal::time::SimTime;

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

/// Drive one seeded op stream into a fresh timeline, checking each span's
/// start against the waits issued on its stream, then the whole-run
/// invariants.
fn run_seed(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let n_streams = 1 + rng.below(4) as usize;
    let mut tl = Timeline::new();
    for s in 0..n_streams {
        tl.add_stream(format!("stream{s}"));
    }
    // Wait times issued on each stream since its previous span.
    let mut waits: Vec<Vec<SimTime>> = vec![Vec::new(); n_streams];
    let mut n_events = 0usize;
    for k in 0..200 {
        let s = rng.below(n_streams as u64) as usize;
        let stream = StreamId(s);
        match rng.below(10) {
            0..=5 => {
                let dur = SimTime(rng.below(1_000_000));
                let end = tl.enqueue(stream, dur, format!("op{}", k % 7));
                let span = tl.spans().last().unwrap();
                assert_eq!(span.end, end, "seed {seed}: enqueue returns the span's end");
                assert_eq!(span.end - span.start, dur, "seed {seed}: span duration");
                assert_eq!(span.label, format!("op{}", k % 7), "seed {seed}: label");
                for &w in &waits[s] {
                    assert!(
                        span.start >= w,
                        "seed {seed}: span at {} on stream {s} starts before its wait at {w}",
                        span.start
                    );
                }
                waits[s].clear();
            }
            6..=7 => {
                tl.record_event(stream);
                n_events += 1;
            }
            8 if n_events > 0 => {
                let event = EventId(rng.below(n_events as u64) as usize);
                tl.wait_event(stream, event);
                waits[s].push(tl.event_time(event));
            }
            _ => {
                let time = SimTime(rng.below(10_000_000));
                tl.wait_until(stream, time);
                waits[s].push(time);
            }
        }
    }

    tl.check_causality()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    let makespan = tl.makespan();
    for s in 0..n_streams {
        let sid = StreamId(s);
        assert_eq!(
            tl.busy_time(sid) + tl.idle_time(sid),
            makespan,
            "seed {seed}: busy + idle of stream {s}"
        );
    }
    for m in tl.marks() {
        match m.kind {
            MarkKind::Record(e) => {
                assert_eq!(
                    m.time,
                    tl.event_time(e),
                    "seed {seed}: record mark of {e:?}"
                )
            }
            MarkKind::Wait(e) => {
                assert_eq!(m.time, tl.event_time(e), "seed {seed}: wait mark on {e:?}")
            }
            MarkKind::WaitUntil => {}
        }
    }
}

#[test]
fn random_op_streams_keep_the_engine_invariants() {
    for seed in 1..=20u64 {
        run_seed(seed);
    }
}
