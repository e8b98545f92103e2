//! Pipeline-parallel schedule simulation.
//!
//! §2.3 notes PP's "bubble" problem, which is severe in long-context
//! training because the number of micro-batches is small (often 1). This
//! module simulates the two classical schedules at stage granularity on the
//! discrete-event engine:
//!
//! * **GPipe**: all micro-batch forwards, then all backwards;
//! * **1F1B** (PipeDream-flush): steady-state alternation, same bubble but
//!   far lower peak activation residency (≤ `pp` in-flight micro-batches
//!   instead of `m`).
//!
//! Both are validated against the analytic bubble formula
//! `(pp − 1) / m` extra time (used by the executors), and the 1F1B
//! in-flight bound feeds the PP memory model.

use memo_hal::engine::{EventId, Timeline};
use memo_hal::time::SimTime;

/// One simulated pipeline schedule result.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Total makespan.
    pub makespan: SimTime,
    /// Ideal time (no bubble): `m · (t_fwd + t_bwd)` per stage.
    pub ideal: SimTime,
    /// Bubble fraction: `makespan / ideal − 1`.
    pub bubble_fraction: f64,
    /// Maximum micro-batches whose activations are simultaneously live on
    /// any stage.
    pub peak_in_flight: usize,
    pub timeline: Timeline,
}

/// Which schedule to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeSchedule {
    GPipe,
    OneFOneB,
}

/// Simulate `m` micro-batches through `pp` stages, each stage taking
/// `t_fwd` / `t_bwd` per micro-batch (uniform stages).
pub fn simulate(
    schedule: PipeSchedule,
    pp: usize,
    m: usize,
    t_fwd: SimTime,
    t_bwd: SimTime,
) -> PipelineOutcome {
    assert!(pp >= 1 && m >= 1);
    let mut tl = Timeline::new();
    let stages: Vec<_> = (0..pp)
        .map(|s| tl.add_stream(format!("stage{s}")))
        .collect();

    // fwd_done[s][j] = event after stage s finishes fwd of micro-batch j
    let mut fwd_done: Vec<Vec<Option<EventId>>> = vec![vec![None; m]; pp];
    let mut bwd_done: Vec<Vec<Option<EventId>>> = vec![vec![None; m]; pp];

    // Build per-stage op orders.
    let order: Vec<Vec<(bool, usize)>> = (0..pp)
        .map(|s| match schedule {
            PipeSchedule::GPipe => {
                let mut v: Vec<(bool, usize)> = (0..m).map(|j| (true, j)).collect();
                v.extend((0..m).map(|j| (false, j)));
                v
            }
            PipeSchedule::OneFOneB => {
                // warm-up: (pp - s) forwards, then alternate 1F1B, then
                // drain remaining backwards.
                let warm = (pp - s).min(m);
                let mut v: Vec<(bool, usize)> = (0..warm).map(|j| (true, j)).collect();
                let mut next_f = warm;
                let mut next_b = 0;
                while next_b < m {
                    if next_f < m {
                        v.push((false, next_b));
                        next_b += 1;
                        v.push((true, next_f));
                        next_f += 1;
                    } else {
                        v.push((false, next_b));
                        next_b += 1;
                    }
                }
                v
            }
        })
        .collect();

    // Execute ops respecting dependencies:
    //  fwd(s, j) needs fwd(s-1, j); bwd(s, j) needs bwd(s+1, j) and fwd(s, j)
    // (last stage's bwd follows its own fwd directly).
    // Iterate round-robin until all stages drain (dependencies may require
    // revisiting a stage whose next op isn't ready — the per-stream serial
    // order is fixed, so we advance each stream's cursor op by op).
    let mut idx = vec![0usize; pp];
    let total: usize = order.iter().map(|v| v.len()).sum();
    let mut done = 0usize;
    let mut stall_guard = 0usize;
    while done < total {
        let mut progressed = false;
        for s in 0..pp {
            while idx[s] < order[s].len() {
                let (is_fwd, j) = order[s][idx[s]];
                let dep = if is_fwd {
                    if s == 0 {
                        Some(None)
                    } else {
                        fwd_done[s - 1][j].map(Some)
                    }
                } else {
                    // bwd needs downstream bwd (or own fwd on the last stage)
                    if s == pp - 1 {
                        fwd_done[s][j].map(Some)
                    } else {
                        bwd_done[s + 1][j].map(Some)
                    }
                };
                let Some(dep) = dep else { break };
                if let Some(ev) = dep {
                    tl.wait_event(stages[s], ev);
                }
                let dur = if is_fwd { t_fwd } else { t_bwd };
                tl.enqueue(
                    stages[s],
                    dur,
                    format!("{}{}s{}", if is_fwd { "F" } else { "B" }, j, s),
                );
                let ev = tl.record_event(stages[s]);
                if is_fwd {
                    fwd_done[s][j] = Some(ev);
                } else {
                    bwd_done[s][j] = Some(ev);
                }
                idx[s] += 1;
                done += 1;
                progressed = true;
            }
        }
        stall_guard += 1;
        assert!(
            progressed || done == total,
            "pipeline deadlock after {stall_guard} rounds"
        );
    }

    // Peak in-flight micro-batches per stage: a micro-batch is in flight on
    // stage s between its fwd end and its bwd start. Compute from span
    // orderings: count, per stage, max overlap of [fwd_end(j), bwd_end(j)].
    let mut peak_in_flight = 0usize;
    for s in 0..pp {
        let mut events: Vec<(SimTime, i32)> = Vec::new();
        for j in 0..m {
            let f = tl.event_time(fwd_done[s][j].expect("scheduled"));
            let b = tl.event_time(bwd_done[s][j].expect("scheduled"));
            events.push((f, 1));
            events.push((b, -1));
        }
        events.sort_by_key(|&(t, delta)| (t, delta));
        let mut live = 0i32;
        for (_, d) in events {
            live += d;
            peak_in_flight = peak_in_flight.max(live as usize);
        }
    }

    let ideal = SimTime((t_fwd.as_nanos() + t_bwd.as_nanos()) * m as u64);
    let makespan = tl.makespan();
    let bubble_fraction = makespan.as_secs_f64() / ideal.as_secs_f64() - 1.0;
    PipelineOutcome {
        makespan,
        ideal,
        bubble_fraction,
        peak_in_flight,
        timeline: tl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn no_pipeline_no_bubble() {
        for sched in [PipeSchedule::GPipe, PipeSchedule::OneFOneB] {
            let out = simulate(sched, 1, 4, ms(10), ms(20));
            assert_eq!(out.makespan, out.ideal, "{sched:?}");
            assert!(out.bubble_fraction.abs() < 1e-9);
        }
    }

    #[test]
    fn bubble_matches_analytic_formula() {
        // With t_bwd = 2·t_fwd the classic bound is (pp-1)·(tf+tb)/(m·(tf+tb))
        for (pp, m) in [(2usize, 1usize), (4, 1), (4, 4), (2, 8)] {
            let out = simulate(PipeSchedule::GPipe, pp, m, ms(10), ms(20));
            let expect = (pp - 1) as f64 / m as f64;
            assert!(
                (out.bubble_fraction - expect).abs() < 1e-6,
                "pp={pp} m={m}: got {}, expected {expect}",
                out.bubble_fraction
            );
        }
    }

    #[test]
    fn one_f_one_b_same_bubble_less_memory() {
        let pp = 4;
        let m = 8;
        let gpipe = simulate(PipeSchedule::GPipe, pp, m, ms(10), ms(20));
        let fb = simulate(PipeSchedule::OneFOneB, pp, m, ms(10), ms(20));
        assert_eq!(gpipe.makespan, fb.makespan, "same bubble");
        assert_eq!(gpipe.peak_in_flight, m, "GPipe keeps all micro-batches");
        assert!(
            fb.peak_in_flight <= pp,
            "1F1B keeps at most pp in flight, got {}",
            fb.peak_in_flight
        );
    }

    #[test]
    fn single_microbatch_long_context_case() {
        // The long-context regime: m = 1 makes PP pay (pp-1)× extra — why
        // the paper's strategies avoid PP at long lengths.
        let out = simulate(PipeSchedule::OneFOneB, 4, 1, ms(30), ms(60));
        assert!((out.bubble_fraction - 3.0).abs() < 1e-6);
    }

    #[test]
    fn timelines_are_causal() {
        for sched in [PipeSchedule::GPipe, PipeSchedule::OneFOneB] {
            let out = simulate(sched, 3, 5, ms(7), ms(13));
            out.timeline.check_causality().unwrap();
        }
    }
}
